"""Matching metrics, threshold calibration, and the authentication oracle.

The oracle simulates a deployed matcher: enrolled templates are held
privately, every authentication is counted, and depending on the configured
mode either the (optionally noise-perturbed) score or only the accept/reject
decision leaves the module.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateTemplateError,
    LockedOutError,
    OracleModeError,
    UnknownIdentityError,
)
from .rng import SeedLike, as_generator
from .validation import (
    as_matrix,
    as_vector,
    check_count,
    check_nonnegative,
    check_probability,
    check_real,
    check_same_dim,
)


class Metric(str, Enum):
    SED = "sed"
    COSINE = "cosine"


class OracleMode(str, Enum):
    SCORE = "score"
    BINARY = "binary"


# Scores reduce with method-form sums over the last axis, not BLAS dot: dot
# kernels pick different instruction paths for strided views, shifting the last
# ulp, and a score must be a function of the values alone so that recomputing
# it from a wire copy of the same numbers gives the identical float. A
# reduction along a contiguous row runs the same pairwise sum whether the row
# is a 1-D probe or one row of a C-contiguous batch, so a probe scores the same
# bits whether it is sent alone or in a batch.


def _score_rows(metric: Metric, a: np.ndarray, rows: np.ndarray, check=None):
    """Score ``rows`` against ``a``: one score per row of an ``(n, d)``
    batch, or one 0-d score for a 1-D probe.

    ``check``, when given, validates ``rows`` and is called only where a
    non-finite entry could be the cause: before a non-finite SED score is
    returned, and under cosine when a norm is not finite, before the dot
    product or the zero-norm refusal. A NaN or inf entry always gets there,
    so the check can refuse it as if it had run first.
    """
    if metric is Metric.SED:
        diff = a - rows
        np.square(diff, out=diff)
        values = diff.sum(axis=-1)
        if check is not None and not _all_finite(values):
            check()
        return values
    na = math.sqrt((a * a).sum())
    nr = np.sqrt((rows * rows).sum(axis=-1))
    if check is not None and not _all_finite(nr):
        check()
    if na == 0.0 or (nr == 0.0).any():
        raise DegenerateTemplateError("degenerate template: the zero vector has no direction")
    return (a * rows).sum(axis=-1) / (na * nr)


def _all_finite(x) -> bool:
    return math.isfinite(x) if x.ndim == 0 else bool(np.isfinite(x).all())


def _score_pair(metric: Metric, a, b) -> float:
    av = as_vector(a, name="a")
    bv = as_vector(b, name="b")
    check_same_dim(av, bv)
    return float(_score_rows(metric, av, bv))


def sed_score(a, b) -> float:
    """Squared Euclidean distance. Smaller means more similar."""
    return _score_pair(Metric.SED, a, b)


def cosine_score(a, b) -> float:
    """Cosine similarity. Larger means more similar."""
    return _score_pair(Metric.COSINE, a, b)


def score(metric: Metric, a, b) -> float:
    metric = Metric(metric)
    return sed_score(a, b) if metric is Metric.SED else cosine_score(a, b)


@dataclass(frozen=True)
class Threshold:
    """An accept/reject cut. Equality counts as acceptance for both metrics."""

    value: float
    metric: Metric

    def __post_init__(self):
        value = check_real(self.value, "threshold")
        metric = Metric(self.metric)
        if not math.isfinite(value):
            raise ValueError(f"threshold must be finite, got {value}")
        if metric is Metric.SED and value <= 0.0:
            raise ValueError(f"sed threshold must be positive, got {value}")
        if metric is Metric.COSINE and not -1.0 < value < 1.0:
            raise ValueError(f"cosine threshold must lie strictly inside (-1, 1), got {value}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "metric", metric)

    def accepts(self, score_value: float) -> bool:
        s = float(score_value)
        return s <= self.value if self.metric is Metric.SED else s >= self.value

    def accepts_many(self, scores) -> np.ndarray:
        """Elementwise :meth:`accepts` over an array of scores."""
        s = np.asarray(scores, dtype=np.float64)
        return s <= self.value if self.metric is Metric.SED else s >= self.value


@dataclass(frozen=True)
class CalibrationResult:
    threshold: Threshold
    achieved_fmr: float
    sample_size: int


def calibrate_threshold(scores, target_fmr: float, metric: Metric | str) -> CalibrationResult:
    """Pick the most permissive threshold whose false-match rate on the
    impostor sample ``scores``, one 1-D array of ``metric`` scores, does not
    exceed ``target_fmr``.

    Because equality accepts, a group of tied scores is either accepted whole
    or excluded whole; when including a tied group would overshoot the target,
    the whole group is excluded.
    """
    if metric is None:
        raise ValueError("metric is required to calibrate a score sample")
    metric = Metric(metric)
    values = as_vector(scores, name="calibration sample")
    target_fmr = check_probability(target_fmr, "target_fmr")
    n = values.size
    if n * target_fmr < 1.0:
        warnings.warn(
            f"calibration sample of {n} scores cannot resolve a false-match rate of {target_fmr}",
            stacklevel=2,
        )

    ordered = np.sort(values)
    if metric is Metric.COSINE:
        ordered = ordered[::-1]  # most permissive (highest) scores first
    k = int(math.floor(target_fmr * n))
    if 0 < k < n and ordered[k] == ordered[k - 1]:
        # the cut would split a tied group; shrink to exclude the group whole
        k = int(np.argmax(ordered == ordered[k - 1]))

    if k > 0:
        cut = float(ordered[k - 1])
    else:
        edge = float(ordered[0])
        towards = -math.inf if metric is Metric.SED else math.inf
        cut = float(np.nextafter(edge, towards))
    try:
        threshold = Threshold(cut, metric)
    except ValueError as exc:
        raise ValueError(f"cannot calibrate a valid {metric.value} threshold: {exc}") from exc
    return CalibrationResult(threshold, achieved_fmr=k / n, sample_size=n)


@dataclass(frozen=True)
class OracleConfig:
    metric: Metric
    mode: OracleMode
    threshold: Threshold | None = None
    noise_sigma: float = 0.0
    query_limit: int | None = None

    def __post_init__(self):
        metric = Metric(self.metric)
        mode = OracleMode(self.mode)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "noise_sigma", check_nonnegative(self.noise_sigma, "noise_sigma"))
        if mode is OracleMode.BINARY and self.threshold is None:
            raise ValueError("binary mode requires a threshold")
        if self.threshold is not None and self.threshold.metric is not metric:
            raise ValueError(
                f"threshold metric {self.threshold.metric.value!r} does not match oracle metric {metric.value!r}"
            )
        if self.query_limit is not None:
            object.__setattr__(self, "query_limit", check_count(self.query_limit, "query_limit", minimum=1))


class MatchingOracle:
    """A simulated matcher holding enrolled templates privately.

    Authentication calls are serialized with a lock, so one instance can be
    shared across threads; the ledger, the served queries per claimed
    identity, then reflects the interleaved total.
    Queries that fail validation (unknown identity, wrong dimension) are not
    served and therefore not counted. With a ``query_limit``, each identity
    is locked out once it has been queried that many times, for the life
    of the oracle.

    The ``*_many`` methods take an ``(n, d)`` batch of probes in one locked
    call and answer, count and add noise to each row exactly as ``n``
    single-probe calls in row order would. A single probe is scored as a
    1-D vector, with the same reduction a batch row gets.
    """

    def __init__(self, config: OracleConfig, *, noise_seed: SeedLike = 0):
        if not isinstance(config, OracleConfig):
            raise TypeError("config must be an OracleConfig")
        self._config = config
        self._enrolled: dict[str, np.ndarray] = {}
        self._ledger: dict[str, int] = {}
        self._noise_rng = as_generator(noise_seed)
        self._lock = threading.Lock()

    @property
    def config(self) -> OracleConfig:
        return self._config

    @property
    def metric(self) -> Metric:
        return self._config.metric

    @property
    def mode(self) -> OracleMode:
        return self._config.mode

    @property
    def threshold(self) -> Threshold | None:
        return self._config.threshold

    @property
    def queries(self) -> int:
        with self._lock:
            return sum(self._ledger.values())

    def queries_for(self, identity: str) -> int:
        with self._lock:
            return self._ledger.get(identity, 0)

    def ledger_snapshot(self) -> tuple[int, dict[str, int]]:
        with self._lock:
            return sum(self._ledger.values()), dict(self._ledger)

    @property
    def enrolled_identities(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._enrolled)

    def enroll(self, identity: str, template) -> None:
        if not isinstance(identity, str) or not identity:
            raise ValueError("identity must be a nonempty string")
        arr = as_vector(template, name="template").copy()
        arr.setflags(write=False)
        with self._lock:
            if identity in self._enrolled:
                raise ValueError(f"identity {identity!r} is already enrolled")
            self._enrolled[identity] = arr

    def authenticate_score(self, identity: str, probe) -> float:
        self._require(OracleMode.SCORE)
        return float(self._serve(identity, probe, batch=False))

    def authenticate_binary(self, identity: str, probe) -> bool:
        self._require(OracleMode.BINARY)
        return self._config.threshold.accepts(self._serve(identity, probe, batch=False))

    def authenticate_score_many(self, identity: str, probes) -> np.ndarray:
        """Released scores of the rows of ``probes``, as if each row were
        sent alone, in order."""
        self._require(OracleMode.SCORE)
        return self._serve(identity, probes, batch=True)

    def authenticate_binary_many(self, identity: str, probes) -> np.ndarray:
        """Decisions on the rows of ``probes``, as if each row were sent
        alone, in order."""
        self._require(OracleMode.BINARY)
        return self._config.threshold.accepts_many(self._serve(identity, probes, batch=True))

    def _require(self, mode: OracleMode) -> None:
        if self._config.mode is not mode:
            if mode is OracleMode.SCORE:
                raise OracleModeError("oracle is in binary mode and does not release scores")
            raise OracleModeError("oracle is in score mode; use authenticate_score")

    def _serve(self, identity: str, probes, *, batch: bool):
        """Score a batch of probes, or one 1-D probe unless ``batch``, under
        the lock. An invalid batch is refused whole, before anything is
        counted. Shape and dimension are checked first; finiteness is checked
        by the full validator only when a score or norm comes out non-finite,
        which a NaN or inf entry always causes. Under a query limit the rows
        that fit are served, recorded and given their noise in order, and a
        lockout is raised if any row is left over, so the ledger reads what
        one call per row would have left."""
        with self._lock:
            if identity not in self._enrolled:
                raise UnknownIdentityError(f"unknown identity {identity!r}")
            limit = self._config.query_limit
            left = None if limit is None else limit - self._ledger.get(identity, 0)
            if left == 0:
                raise LockedOutError(f"locked out: query limit of {limit} reached for {identity!r}")
            enrolled = self._enrolled[identity]

            def check():
                if batch:
                    return as_matrix(probes, name="probes", dim=enrolled.size)
                return as_vector(probes, name="probe", dim=enrolled.size)

            try:
                rows = np.asarray(probes, dtype=np.float64, order="C" if batch else None)
            except OverflowError:  # an integer beyond float range
                rows = check()  # raises the validator's ValueError
            if batch:
                if rows.ndim != 2 or rows.shape[1] != enrolled.size:
                    rows = check()  # raises, in the validator's order of checks
            elif rows.shape != enrolled.shape:
                rows = check()
            values = _score_rows(self._config.metric, enrolled, rows, check)
            sigma = self._config.noise_sigma
            if not batch:
                if sigma > 0.0:
                    values = values + sigma * self._noise_rng.standard_normal()
                self._ledger[identity] = self._ledger.get(identity, 0) + 1
                return values
            n = len(values) if left is None else min(len(values), left)
            values = values[:n]
            if sigma > 0.0:
                values = values + sigma * self._noise_rng.standard_normal(n)
            self._ledger[identity] = self._ledger.get(identity, 0) + n
            if n < len(rows):
                raise LockedOutError(
                    f"locked out: query limit of {limit} reached for {identity!r} "
                    f"after {n} of {len(rows)} probes",
                    served=n,
                )
            return values

    def __repr__(self) -> str:
        return (
            f"MatchingOracle(metric={self._config.metric.value!r}, mode={self._config.mode.value!r}, "
            f"enrolled={len(self._enrolled)}, queries={sum(self._ledger.values())})"
        )
