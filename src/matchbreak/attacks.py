"""Template-reconstruction attacks against matching oracles.

All attacks are black box: they interact with the oracle only through its
``authenticate_*`` calls. Their query cost is counted on the client, as the
number of probes the oracle answered during the run, so it needs no ledger
round trip and does not include other clients' queries. Probes that do not
depend on each other's answers go out in ``authenticate_*_many`` batches.
Four families are implemented:

* ``score-sed``: solve the distance equations released by a squared-Euclidean
  score oracle; ``d + 1`` probes pin the enrolled template exactly.
* ``score-cos``: solve the linear system released by a cosine score oracle;
  ``d`` orthonormal probes recover the template direction.
* ``hill``: score-guided random hill climbing, the classical baseline.
* ``binary-baseline``: average every breaking-set member a decision oracle
  accepts.
* ``binary-ours``: find one accepted seed, bisect to ``d + 1`` points on the
  decision boundary, and solve for the sphere center they share. Its rays
  run along the vertices of a randomly turned regular simplex by default
  (``directions="simplex"``): the draw takes ``2d`` normals, and the centre
  has a closed form, one matrix-vector product, with the conditioning guard
  kept through the system's structured inverse (O(d^2) each). The paper's
  ``directions="random"`` draws ``(d + 1) d`` normals and solves the
  points' system by LU, O(d^3). Both cost the same queries.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    ATTACK_FAILURES,
    LockedOutError,
    NoFalseMatchError,
    OracleModeError,
    OutsidePointError,
    SingularSystemError,
)
from .linalg import solve_linear_system, sphere_center
from .matcher import Metric, OracleMode
from .rng import SeedLike, as_generator, random_unit_vector, random_unit_vectors, simplex_directions
from .synth import _BLOCK_ELEMENTS, BreakingSet
from .templates import Template, normalize
from .validation import as_vector, check_count, check_positive

# binary-ours' ray designs: a turned regular simplex (the default), or the
# paper's uniformly random directions.
DIRECTION_DESIGNS = ("simplex", "random")

# Retry budgets; they decide when an attack gives up, not what a success costs.
_RESAMPLE_ATTEMPTS = 4  # fresh probe sets or boundary points after the solver refuses a system
_DIRECTION_REDRAWS = 8  # per bracket radius, for rays that never left the acceptance region


@dataclass(frozen=True)
class ReconstructionResult:
    recovered: Template
    queries_used: int
    wall_time_seconds: float
    attack_name: str
    params: dict


class Attack:
    """Base class wiring query accounting and timing around an attack run.

    Each subclass is a dataclass of its parameters, and names itself, the
    oracle mode it attacks and the metric it needs (``None``: either). A
    failure in :data:`ATTACK_FAILURES` leaves ``reconstruct`` carrying the
    queries the run got answered as ``queries_used``.
    """

    name: ClassVar[str]
    mode: ClassVar[OracleMode]
    metric: ClassVar[Metric | None] = None

    def reconstruct(
        self,
        oracle,
        claim: str,
        *,
        seed: SeedLike = 0,
        breaking_set: BreakingSet | None = None,
    ) -> ReconstructionResult:
        _require(oracle, self.mode, self.metric, self.name)
        rng = as_generator(seed)
        counted = _CountingOracle(oracle)
        started = time.perf_counter()
        try:
            values, unit, extras = self._run(counted, claim, rng, breaking_set)
        except ATTACK_FAILURES as exc:
            exc.queries_used = counted.answered
            raise
        elapsed = time.perf_counter() - started
        params = dataclasses.asdict(self)
        params.update(extras)
        return ReconstructionResult(
            recovered=Template(values, unit=unit),
            queries_used=counted.answered,
            wall_time_seconds=elapsed,
            attack_name=self.name,
            params=params,
        )

    def _run(self, oracle, claim, rng, breaking_set):
        raise NotImplementedError


class _CountingOracle:
    """An oracle as one attack run sees it: every call goes to the real
    oracle, and the probes it answers are counted here, including the rows
    of a batch served before a lockout."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.mode = oracle.mode
        self.metric = oracle.metric
        self.answered = 0

    def authenticate_score(self, claim, probe):
        value = self._oracle.authenticate_score(claim, probe)
        self.answered += 1
        return value

    def authenticate_binary(self, claim, probe):
        value = self._oracle.authenticate_binary(claim, probe)
        self.answered += 1
        return value

    def authenticate_score_many(self, claim, probes):
        return self._many(self._oracle.authenticate_score_many, claim, probes)

    def authenticate_binary_many(self, claim, probes):
        return self._many(self._oracle.authenticate_binary_many, claim, probes)

    def _many(self, call, claim, probes):
        try:
            values = call(claim, probes)
        except LockedOutError as exc:
            self.answered += exc.served
            raise
        self.answered += len(values)
        return values


def _require(oracle, mode: OracleMode, metric: Metric | None, attack_name: str) -> None:
    if oracle.mode is not mode:
        raise OracleModeError(
            f"{attack_name} needs a {mode.value}-mode oracle, got {oracle.mode.value} mode"
        )
    if metric is not None and oracle.metric is not metric:
        raise OracleModeError(
            f"{attack_name} needs the {metric.value} metric, got {oracle.metric.value}"
        )


@dataclass(frozen=True)
class SedScoreAttack(Attack):
    """Recover a template from ``dim + 1`` released squared-distance scores.

    Random probes all see the template at a known squared distance, so the
    template is the center of a sphere through the probes and is found by one
    linear solve. Degenerate probe draws are resampled.
    """

    dim: int

    name: ClassVar[str] = "score-sed"
    mode: ClassVar[OracleMode] = OracleMode.SCORE
    metric: ClassVar[Metric] = Metric.SED

    def __post_init__(self):
        check_count(self.dim, "dim", minimum=1)

    def _run(self, oracle, claim, rng, breaking_set):
        d = self.dim
        center, extras = _solve_scores(oracle, claim, lambda: rng.standard_normal((d + 1, d)), sphere_center)
        return center, False, extras


@dataclass(frozen=True)
class CosineScoreAttack(Attack):
    """Recover a template direction from ``dim`` released cosine scores.

    An orthonormal probe basis makes the score system perfectly conditioned,
    so score noise is not amplified by the solve. Cosine discards the norm,
    hence the result is returned unit-normalized.
    """

    dim: int

    name: ClassVar[str] = "score-cos"
    mode: ClassVar[OracleMode] = OracleMode.SCORE
    metric: ClassVar[Metric] = Metric.COSINE

    def __post_init__(self):
        check_count(self.dim, "dim", minimum=1)

    def _run(self, oracle, claim, rng, breaking_set):
        direction, extras = _solve_scores(
            oracle, claim, lambda: _orthonormal_probes(rng, self.dim), solve_linear_system
        )
        return normalize(direction).values, True, extras


def _solve_scores(oracle, claim, draw_probes, solve):
    """Solve the released scores of drawn probes, drawing fresh probes
    (up to ``_RESAMPLE_ATTEMPTS`` times) while the solver refuses their
    system."""
    last_error = None
    for attempt in range(_RESAMPLE_ATTEMPTS + 1):
        probes = draw_probes()
        scores = oracle.authenticate_score_many(claim, probes)
        try:
            return solve(probes, scores), {"probe_resamples": attempt}
        except SingularSystemError as exc:
            last_error = exc
    raise SingularSystemError(
        f"probe geometry stayed singular after {_RESAMPLE_ATTEMPTS} resamples"
    ) from last_error


def _orthonormal_probes(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return (q * signs).T


@dataclass(frozen=True)
class HillClimbAttack(Attack):
    """Score-guided random hill climbing.

    Starts from a random probe and keeps any step of fixed size that strictly
    improves the released score. ``budget`` counts the perturbation probes,
    so the total query cost is ``budget + 1`` including the starting probe.
    """

    dim: int
    step_size: float = 0.07
    budget: int = 4000
    record_trace: bool = False

    name: ClassVar[str] = "hill"
    mode: ClassVar[OracleMode] = OracleMode.SCORE

    def __post_init__(self):
        check_count(self.dim, "dim", minimum=1)
        check_positive(self.step_size, "step_size")
        check_count(self.budget, "budget", minimum=0)

    def _run(self, oracle, claim, rng, breaking_set):
        metric = oracle.metric
        improves = (lambda s, best: s < best) if metric is Metric.SED else (lambda s, best: s > best)

        current = random_unit_vector(rng, self.dim)  # start on the sphere templates live on
        best = oracle.authenticate_score(claim, current)
        trace = [(1, best)]
        # Moves come in blocks of rows from one stream, as one
        # random_unit_vector call per step would draw them.
        block = max(1, _BLOCK_ELEMENTS // self.dim)
        for first in range(0, self.budget, block):
            moves = self.step_size * random_unit_vectors(
                rng, self.dim, min(block, self.budget - first)
            )
            for i, move in enumerate(moves, start=first):
                candidate = current + move
                if metric is Metric.COSINE:
                    candidate = candidate / np.linalg.norm(candidate)
                score = oracle.authenticate_score(claim, candidate)
                if improves(score, best):
                    current, best = candidate, score
                    trace.append((i + 2, best))
        extras = {"final_score": best, "improvements": len(trace) - 1}
        if self.record_trace:
            extras["trace"] = trace
        return current, metric is Metric.COSINE, extras


@dataclass(frozen=True)
class AcceptAverageAttack(Attack):
    """Average the breaking-set members a decision oracle accepts.

    Probes members in order (up to ``budget`` of them) and returns the mean
    of the accepted ones. Fails when nothing is accepted.
    """

    budget: int | None = None

    name: ClassVar[str] = "binary-baseline"
    mode: ClassVar[OracleMode] = OracleMode.BINARY

    def __post_init__(self):
        if self.budget is not None:
            check_count(self.budget, "budget", minimum=1)

    def _run(self, oracle, claim, rng, breaking_set):
        if breaking_set is None:
            raise ValueError(f"{self.name} requires a breaking set")
        probes = breaking_set.values[: self.budget]
        accepted = np.flatnonzero(oracle.authenticate_binary_many(claim, probes))
        if not accepted.size:
            raise NoFalseMatchError("no false match found in the breaking set")
        return probes[accepted].mean(axis=0), False, {"accepted_indices": accepted.tolist()}


def find_seed_match(
    oracle,
    claim: str,
    breaking_set: BreakingSet,
    *,
    max_attempts: int | None = None,
) -> tuple[np.ndarray, int]:
    """Probe breaking-set rows in order until one is accepted.

    Returns a read-only copy of the accepted row and the number of queries
    spent (the accepted probe included). Raises :class:`NoFalseMatchError`
    when the budget or the set runs out first.
    """
    _require(oracle, OracleMode.BINARY, None, "find_seed_match")
    rows = breaking_set.values[:max_attempts]
    for i, row in enumerate(rows):
        if oracle.authenticate_binary(claim, row):
            seed = as_vector(row, name="seed").copy()
            seed.setflags(write=False)
            return seed, i + 1
    raise NoFalseMatchError(f"no false match found in {len(rows)} attempts")


def boundary_point(
    oracle,
    claim: str,
    start,
    radius_estimate: float,
    precision: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bisect from an accepted point to the decision boundary.

    ``start`` must be accepted for ``claim``. A point at ``2 * radius_estimate``
    along a random direction serves as the outside end; ``precision`` halvings
    narrow the bracket and the midpoint is returned, pinning the boundary to
    within ``T / 2**(precision - 1)`` in squared distance for threshold ``T``.

    A round whose ``precision`` queries all accept never left the region, so
    the direction is redrawn without spending extra queries on an explicit
    outside check; after ``_DIRECTION_REDRAWS`` failures the radius
    estimate is doubled once before giving up. Each round costs exactly
    ``precision`` queries. This is :func:`boundary_points` for one ray.
    """
    points, _, _ = boundary_points(oracle, claim, start, radius_estimate, precision, rng, 1)
    return points[0]


def boundary_points(
    oracle,
    claim: str,
    start,
    radius_estimate: float,
    precision: int,
    rng: np.random.Generator,
    count: int,
    *,
    directions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Bisect ``count`` rays from ``start`` to the boundary in blocks.

    Each round of :func:`boundary_point` runs for a block of rays at once:
    one batch of the block's probes per halving. A ray ``start + t * u`` is
    bisected on its scalar bracket ``[t_in, t_out]``, from ``[0, 2 *
    radius]``; each halving sends a freshly built batch at the midpoints, so
    an oracle may keep the arrays it was sent. A pass draws the directions
    of all pending rays in row order, then splits them into the fewest
    blocks of at most ``_BLOCK_ELEMENTS // d`` rows (sizes differing by at
    most one), so that a block's directions, probes and the oracle's
    differences stay in cache, and bisects one block fully before the next.
    Rays are independent, so the points, rounds and query counts are those
    of bisecting all pending rays in lockstep; only the order in which
    probes reach the oracle is block-major. Under a noisy or query-limited
    oracle that order decides which probe meets which noise draw and where
    a lockout falls, once a pass spans several blocks (d >= 256 for
    ``d + 1`` rays). Rays that never left the region are redrawn together
    in the next pass, and the radius estimate doubles after
    ``_DIRECTION_REDRAWS`` of those. ``directions``, ``(count, d)`` unit
    rows, replaces the first pass's draw; redrawn rays are random either
    way. Returns the ``(count, d)`` points, each point's ``t`` along its
    final direction, and the number of rounds bisected, each of which cost
    ``precision`` queries.
    """
    _require(oracle, OracleMode.BINARY, None, "boundary_points")
    center = as_vector(start, name="start")
    radius_estimate = check_positive(radius_estimate, "radius_estimate")
    precision = check_count(precision, "precision", minimum=1)
    count = check_count(count, "count", minimum=1)

    if directions is not None and directions.shape != (count, center.size):
        raise ValueError(f"directions must have shape {(count, center.size)}, got {directions.shape}")

    block = max(1, _BLOCK_ELEMENTS // center.size)
    points = np.empty((count, center.size), dtype=np.float64)
    lengths = np.empty(count)
    pending = np.arange(count)
    rounds = 0
    for radius in (radius_estimate, 2.0 * radius_estimate):
        for _ in range(_DIRECTION_REDRAWS + 1):
            n = len(pending)
            if directions is None or rounds:  # given directions serve the first pass only
                directions = random_unit_vectors(rng, center.size, n)
            t = np.empty(n)
            left_region = np.empty(n, dtype=bool)
            blocks = -(-n // block)
            for k in range(blocks):
                rows = slice(k * n // blocks, (k + 1) * n // blocks)
                t[rows], left_region[rows] = _bisect_rays(
                    oracle, claim, center, directions[rows], 2.0 * radius, precision
                )
            rounds += n
            if n == count and left_region.all():  # the usual first pass: no gathered temporaries
                np.multiply(t[:, None], directions, out=points)
                points += center
                return points, t, rounds
            points[pending[left_region]] = t[left_region, None] * directions[left_region] + center
            lengths[pending[left_region]] = t[left_region]
            pending = pending[~left_region]
            if not pending.size:
                return points, lengths, rounds
    raise OutsidePointError(
        "no probe direction left the acceptance region; the radius estimate is too small"
    )


def _bisect_rays(oracle, claim, center, directions, t_max, precision):
    """Bisect the rays ``center + t * u``, one per row ``u`` of
    ``directions``, on ``[0, t_max]`` with ``precision`` batches. Returns
    each ray's final midpoint ``t`` and whether any of its probes was
    rejected."""
    t_in = np.zeros(len(directions))
    t_out = np.full(len(directions), t_max)
    left_region = np.zeros(len(directions), dtype=bool)
    for _ in range(precision):
        t = 0.5 * (t_in + t_out)
        probes = t[:, None] * directions
        probes += center
        accepted = oracle.authenticate_binary_many(claim, probes)
        np.copyto(t_in, t, where=accepted)
        np.copyto(t_out, t, where=~accepted)
        left_region |= ~accepted
    return 0.5 * (t_in + t_out), left_region


@dataclass(frozen=True)
class BoundarySearchAttack(Attack):
    """Reconstruct a template from a decision-only squared-distance oracle.

    One accepted seed is found by scanning the breaking set, then ``dim + 1``
    boundary points are located by bisection, rays in blocks; they all
    sit at the threshold distance from the enrolled template, which is
    recovered as their common sphere center. ``threshold_estimate`` is in
    score units (squared distance); its square root is the geometric radius
    used for bracketing. When the solver refuses the points' system as
    ill-conditioned, one point is redrawn (``precision`` more queries), up
    to ``_RESAMPLE_ATTEMPTS`` times.

    ``directions`` picks the rays' design. ``"simplex"`` sends them along
    the vertices of a randomly turned regular simplex
    (:func:`simplex_directions`), and the centre comes in closed form. The
    paper's ``"random"`` draws each direction uniformly and solves the
    points' system by LU. A redrawn ray or a replaced point is random under
    either design, and a system holding one is solved by LU.
    """

    dim: int
    threshold_estimate: float
    precision: int = 20
    max_seed_attempts: int | None = None
    directions: str = "simplex"

    name: ClassVar[str] = "binary-ours"
    mode: ClassVar[OracleMode] = OracleMode.BINARY
    metric: ClassVar[Metric] = Metric.SED

    def __post_init__(self):
        check_count(self.dim, "dim", minimum=1)
        check_positive(self.threshold_estimate, "threshold_estimate")
        check_count(self.precision, "precision", minimum=1)
        if self.max_seed_attempts is not None:
            check_count(self.max_seed_attempts, "max_seed_attempts", minimum=1)
        if self.directions not in DIRECTION_DESIGNS:
            raise ValueError(f"directions must be one of {', '.join(DIRECTION_DESIGNS)}, got {self.directions!r}")

    def _run(self, oracle, claim, rng, breaking_set):
        if breaking_set is None:
            raise ValueError(f"{self.name} requires a breaking set")
        seed, seed_attempts = find_seed_match(
            oracle, claim, breaking_set, max_attempts=self.max_seed_attempts
        )
        d = self.dim
        radius = float(np.sqrt(self.threshold_estimate))
        simplex = simplex_directions(rng, d) if self.directions == "simplex" else None
        points, t, rounds = boundary_points(
            oracle, claim, seed, radius, self.precision, rng, d + 1, directions=simplex
        )
        redraw_rounds = rounds - (d + 1)
        # The closed form needs every ray on its simplex vertex.
        rays = (seed, t, simplex) if simplex is not None and not redraw_rounds else None
        solve_resamples = 0
        while True:
            try:
                center = sphere_center(points, rays=rays)
                break
            except SingularSystemError:
                if solve_resamples >= _RESAMPLE_ATTEMPTS:
                    raise
                replacement, _, rounds = boundary_points(oracle, claim, seed, radius, self.precision, rng, 1)
                points[solve_resamples % (d + 1)] = replacement[0]
                redraw_rounds += rounds - 1
                solve_resamples += 1
                rays = None
        extras = {
            "seed_attempts": seed_attempts,
            "boundary_redraws": redraw_rounds,
            "solve_resamples": solve_resamples,
        }
        return center, False, extras


ATTACKS: dict[str, type[Attack]] = {
    cls.name: cls
    for cls in (
        SedScoreAttack,
        CosineScoreAttack,
        HillClimbAttack,
        AcceptAverageAttack,
        BoundarySearchAttack,
    )
}

def make_attack(
    name: str, *, dim: int | None = None, threshold: float | None = None, **params
) -> Attack:
    """Instantiate an attack by its registry name. ``dim`` and the oracle's
    ``threshold`` fill the fields ``dim`` and ``threshold_estimate`` where
    the attack has them and ``params`` leaves them unset."""
    try:
        cls = ATTACKS[name]
    except KeyError:
        known = ", ".join(sorted(ATTACKS))
        raise ValueError(f"unknown attack {name!r}; known attacks: {known}") from None
    field_names = {f.name for f in dataclasses.fields(cls)}
    kwargs = dict(params)
    for field, value in (("dim", dim), ("threshold_estimate", threshold)):
        if field in field_names and value is not None and field not in kwargs:
            kwargs[field] = value
    unknown = sorted(set(kwargs) - field_names)
    if unknown:
        raise ValueError(f"unknown parameter(s) for {name}: {', '.join(unknown)}")
    return cls(**kwargs)
