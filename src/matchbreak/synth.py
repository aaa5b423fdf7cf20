"""Synthetic identity population in feature space.

Identities are unit-norm center directions. A sample of an identity is its
center plus isotropic Gaussian within-class noise, optionally re-normalized.
A concentration knob pulls all centers toward one common direction, mimicking
the uneven density of real embedding spaces. Everything is a pure function of
the model parameters and an explicit seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matcher import (
    CalibrationResult,
    MatchingOracle,
    Metric,
    OracleConfig,
    OracleMode,
    Threshold,
    calibrate_threshold,
)
from .rng import SeedLike, as_generator, make_rng, random_unit_vector
from .templates import Template
from .validation import check_count, check_nonnegative

_MODEL_FORMAT = "matchbreak-model-v1"
_CENTER_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class IdentityModel:
    dim: int
    num_identities: int
    centers: np.ndarray
    within_noise_sigma: float
    center_concentration: float
    seed: int

    def __post_init__(self):
        check_count(self.dim, "dim", minimum=2)
        check_count(self.num_identities, "num_identities", minimum=1)
        check_nonnegative(self.within_noise_sigma, "within_noise_sigma")
        check_nonnegative(self.center_concentration, "center_concentration")
        centers = np.array(self.centers, dtype=np.float64)
        if centers.shape != (self.num_identities, self.dim):
            raise ValueError(
                f"centers must have shape {(self.num_identities, self.dim)}, got {centers.shape}"
            )
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers contain non-finite values")
        norms = np.linalg.norm(centers, axis=1)
        if np.any(np.abs(norms - 1.0) > _CENTER_NORM_TOL):
            raise ValueError("every identity center must have unit norm")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdentityModel):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.num_identities == other.num_identities
            and self.within_noise_sigma == other.within_noise_sigma
            and self.center_concentration == other.center_concentration
            and self.seed == other.seed
            and np.array_equal(self.centers, other.centers)
        )

    def __repr__(self) -> str:
        return (
            f"IdentityModel(dim={self.dim}, num_identities={self.num_identities}, "
            f"within_noise_sigma={self.within_noise_sigma}, "
            f"center_concentration={self.center_concentration}, seed={self.seed})"
        )


def gen_identity_model(
    dim: int,
    num_identities: int,
    *,
    within_noise_sigma: float = 0.1,
    center_concentration: float = 0.0,
    seed: int = 0,
) -> IdentityModel:
    """Draw an identity population of unit-norm centers.

    With ``center_concentration == 0`` the centers are uniform on the sphere;
    larger values add a shared bias direction before normalization, packing
    the population into a cap around it.
    """
    check_count(dim, "dim", minimum=2)
    check_count(num_identities, "num_identities", minimum=2)
    check_nonnegative(within_noise_sigma, "within_noise_sigma")
    check_nonnegative(center_concentration, "center_concentration")

    raw = make_rng(seed, "centers").standard_normal((num_identities, dim))
    if center_concentration > 0.0:
        axis = random_unit_vector(make_rng(seed, "axis"), dim)
        raw = raw + center_concentration * axis
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate center draw")  # probability zero
    centers = raw / norms
    return IdentityModel(
        dim=dim,
        num_identities=num_identities,
        centers=centers,
        within_noise_sigma=float(within_noise_sigma),
        center_concentration=float(center_concentration),
        seed=int(seed),
    )


def _identity_index(model: IdentityModel, identity) -> int:
    if isinstance(identity, str):
        try:
            identity = int(identity)
        except ValueError:
            raise ValueError(f"identity must be an integer index, got {identity!r}") from None
    if isinstance(identity, bool) or not isinstance(identity, (int, np.integer)):
        raise ValueError(f"identity must be an integer index, got {identity!r}")
    idx = int(identity)
    if not 0 <= idx < model.num_identities:
        raise ValueError(f"identity {idx} out of range [0, {model.num_identities})")
    return idx


def sample_template(model: IdentityModel, identity, *, unit_norm: bool = True, seed: SeedLike) -> Template:
    """Draw one fresh sample of the given identity."""
    idx = _identity_index(model, identity)
    rng = as_generator(seed)
    while True:
        values = model.centers[idx] + model.within_noise_sigma * rng.standard_normal(model.dim)
        norm = np.linalg.norm(values)
        if not unit_norm:
            return Template(values, unit=False)
        if norm > 0.0:
            return Template(values / norm, unit=True)


def enrollment_template(model: IdentityModel, identity, *, unit_norm: bool = True) -> Template:
    """The canonical enrolled sample of an identity.

    Deterministic in the model's own seed, so independently built oracles
    (local and remote) enroll byte-identical templates.
    """
    idx = _identity_index(model, identity)
    return sample_template(model, idx, unit_norm=unit_norm, seed=make_rng(model.seed, "enroll", idx))


@dataclass(frozen=True)
class BreakingSet:
    """Samples of non-target identities, probed in order by decision attacks."""

    members: tuple[tuple[int, Template], ...]
    model: IdentityModel
    excluded: int

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.members)

    @property
    def templates(self) -> tuple[Template, ...]:
        return tuple(t for _, t in self.members)


def gen_breaking_set(
    model: IdentityModel,
    exclude_identity,
    size: int,
    *,
    unit_norm: bool = True,
    seed: SeedLike,
) -> BreakingSet:
    """Draw ``size`` samples cycling round-robin over all non-target identities."""
    idx = _identity_index(model, exclude_identity)
    check_count(size, "size", minimum=1)
    others = [i for i in range(model.num_identities) if i != idx]
    if not others:
        raise ValueError("breaking set needs at least one identity besides the target")
    labels = np.array([others[j % len(others)] for j in range(size)], dtype=np.intp)

    rng = as_generator(seed)
    values = model.centers[labels] + model.within_noise_sigma * rng.standard_normal((size, model.dim))
    if unit_norm:
        norms = np.linalg.norm(values, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise RuntimeError("degenerate sample draw")  # probability zero
        values = values / norms
    members = tuple(
        (int(label), Template(row, unit=unit_norm)) for label, row in zip(labels, values)
    )
    return BreakingSet(members=members, model=model, excluded=idx)


def _pair_scores(
    model: IdentityModel,
    metric: Metric,
    n_pairs: int,
    *,
    impostor: bool,
    unit_norm: bool,
    seed: SeedLike,
    chunk_size: int = 20000,
) -> np.ndarray:
    metric = Metric(metric)
    check_count(n_pairs, "n_pairs", minimum=1)
    if impostor and model.num_identities < 2:
        raise ValueError("impostor pairs need at least two identities")
    rng = as_generator(seed)
    n = model.num_identities
    out = np.empty(n_pairs, dtype=np.float64)
    done = 0
    while done < n_pairs:
        m = min(chunk_size, n_pairs - done)
        i = rng.integers(0, n, size=m)
        if impostor:
            j = (i + rng.integers(1, n, size=m)) % n  # never the same identity
        else:
            j = i
        a = model.centers[i] + model.within_noise_sigma * rng.standard_normal((m, model.dim))
        b = model.centers[j] + model.within_noise_sigma * rng.standard_normal((m, model.dim))
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        if np.any(na == 0.0) or np.any(nb == 0.0):
            raise RuntimeError("degenerate sample draw")  # probability zero
        if unit_norm:
            a = a / na[:, None]
            b = b / nb[:, None]
            na = nb = None
        if metric is Metric.SED:
            diff = a - b
            out[done:done + m] = np.einsum("ij,ij->i", diff, diff)
        else:
            dots = np.einsum("ij,ij->i", a, b)
            if na is None:
                out[done:done + m] = dots
            else:
                out[done:done + m] = dots / (na * nb)
        done += m
    return out


def impostor_scores(
    model: IdentityModel,
    metric: Metric,
    n_pairs: int,
    *,
    unit_norm: bool = True,
    seed: SeedLike,
) -> np.ndarray:
    """Scores of fresh sample pairs drawn from two distinct identities."""
    return _pair_scores(model, metric, n_pairs, impostor=True, unit_norm=unit_norm, seed=seed)


def genuine_scores(
    model: IdentityModel,
    metric: Metric,
    n_pairs: int,
    *,
    unit_norm: bool = True,
    seed: SeedLike,
) -> np.ndarray:
    """Scores of two independent fresh samples of one identity."""
    return _pair_scores(model, metric, n_pairs, impostor=False, unit_norm=unit_norm, seed=seed)


def calibrate_for_model(
    model: IdentityModel,
    metric: Metric,
    target_fmr: float,
    *,
    pairs: int,
    unit_norm: bool = True,
    seed,
) -> CalibrationResult:
    """Calibrate a threshold on fresh impostor pairs drawn from the model."""
    scores = impostor_scores(model, metric, pairs, unit_norm=unit_norm, seed=seed)
    return calibrate_threshold(scores, target_fmr, metric)


def build_scenario(
    model: IdentityModel,
    metric: Metric,
    mode: OracleMode,
    identities,
    *,
    threshold: float | None = None,
    fmr: float | None = None,
    calibration_pairs: int = 100000,
    calibration_seed: SeedLike = 0,
    noise_sigma: float = 0.0,
    noise_seed: SeedLike = 0,
    query_limit: int | None = None,
    unit_norm: bool = True,
    breaking_set_size: int | None = None,
    breaking_set_seed: SeedLike = 0,
) -> tuple[MatchingOracle, BreakingSet | None]:
    """Stand up a matching oracle over ``model`` with ``identities`` enrolled,
    and return it with a breaking set, or ``None`` in its place.

    The oracle's threshold is ``threshold`` when given, else one calibrated
    to ``fmr`` on ``calibration_pairs`` fresh impostor pairs; a score-mode
    oracle may have neither. When ``breaking_set_size`` is given and the
    oracle is decision-only, a breaking set of that size is drawn for an
    attack on the single enrolled identity.
    """
    if threshold is None and fmr is not None:
        threshold = calibrate_for_model(
            model, metric, fmr, pairs=calibration_pairs, unit_norm=unit_norm, seed=calibration_seed
        ).threshold.value
    oracle = MatchingOracle(
        OracleConfig(
            metric=metric,
            mode=mode,
            threshold=None if threshold is None else Threshold(threshold, metric),
            noise_sigma=noise_sigma,
            query_limit=query_limit,
        ),
        noise_seed=noise_seed,
    )
    identities = [_identity_index(model, i) for i in identities]
    for i in identities:
        oracle.enroll(str(i), enrollment_template(model, i, unit_norm=unit_norm).values)
    breaking_set = None
    if breaking_set_size is not None and oracle.mode is OracleMode.BINARY:
        if len(identities) != 1:
            raise ValueError("a breaking set is drawn for exactly one enrolled identity")
        breaking_set = gen_breaking_set(
            model, identities[0], breaking_set_size, unit_norm=unit_norm, seed=breaking_set_seed
        )
    return oracle, breaking_set


def save_model(model: IdentityModel, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "centers.npy", np.asarray(model.centers))
    manifest = {
        "format": _MODEL_FORMAT,
        "dim": model.dim,
        "num_identities": model.num_identities,
        "within_noise_sigma": model.within_noise_sigma,
        "center_concentration": model.center_concentration,
        "seed": model.seed,
    }
    (directory / "model.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_model(directory) -> IdentityModel:
    directory = Path(directory)
    manifest_path = directory / "model.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no model manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format") != _MODEL_FORMAT:
        raise ValueError(f"unsupported model format {manifest.get('format')!r}")
    centers = np.load(directory / "centers.npy")
    return IdentityModel(
        dim=int(manifest["dim"]),
        num_identities=int(manifest["num_identities"]),
        centers=centers,
        within_noise_sigma=float(manifest["within_noise_sigma"]),
        center_concentration=float(manifest["center_concentration"]),
        seed=int(manifest["seed"]),
    )
