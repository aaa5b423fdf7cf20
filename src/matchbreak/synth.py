"""Synthetic identity population in feature space.

Identities are unit-norm center directions. A sample of an identity is its
center plus isotropic Gaussian within-class noise, re-normalized to unit norm.
A concentration knob pulls all centers toward one common direction, mimicking
the uneven density of real embedding spaces. Everything is a pure function of
the model parameters and an explicit seed.
"""

from __future__ import annotations

import contextlib
import json
import mmap
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
from .rng import SeedLike, as_generator, check_seed, make_rng, random_unit_vector
from .templates import UNIT_NORM_TOL, Template
from .validation import check_count, check_nonnegative

_MODEL_FORMAT = "matchbreak-model-v1"
_BLOCK_ELEMENTS = 1 << 16  # values per row block: 512 KB of float64 stays in L2; 4 MB blocks ran slower
_SLOT_ELEMENTS = _BLOCK_ELEMENTS // 2  # values per ring slot of the pair sampler: two slots make one block
_HUGE_PAGE = 2 << 20  # bytes; the kernel aligns an anonymous mapping to huge pages only at multiples of this
_CHUNK_PAIRS = 20000  # pairs per calibration chunk, part of the sampler's specification


@dataclass(frozen=True, eq=False)
class IdentityModel:
    dim: int
    num_identities: int
    centers: np.ndarray
    within_noise_sigma: float
    center_concentration: float
    seed: int

    def __post_init__(self):
        checked = {
            "dim": check_count(self.dim, "dim", minimum=2),
            "num_identities": check_count(self.num_identities, "num_identities", minimum=2),
            "within_noise_sigma": check_nonnegative(self.within_noise_sigma, "within_noise_sigma"),
            "center_concentration": check_nonnegative(self.center_concentration, "center_concentration"),
            "seed": check_seed(self.seed),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        centers = np.array(self.centers, dtype=np.float64)
        if centers.shape != (self.num_identities, self.dim):
            raise ValueError(
                f"centers must have shape {(self.num_identities, self.dim)}, got {centers.shape}"
            )
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers contain non-finite values")
        norms = np.linalg.norm(centers, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
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
        within_noise_sigma=within_noise_sigma,
        center_concentration=center_concentration,
        seed=seed,
    )


def _mapped_empty(rows: int, dim: int) -> np.ndarray:
    """An uninitialised ``(rows, dim)`` float64 array in a private anonymous
    mapping of its own, advised to use huge pages before its first touch.

    Freeing the array unmaps it, so glibc's heap never holds it. A block of
    up to 32 MiB that glibc itself mmapped raises its mmap threshold to that
    size when freed; every later block of that size then comes from the brk
    heap, where it stays resident once freed and is split by small
    allocations. The mapping's length is rounded up to a multiple of
    ``_HUGE_PAGE``, since the kernel backs a mapping of any other length
    with small pages: filling a (4000, 128) array took 489 minor faults
    unrounded and 2 rounded. Without ``MAP_PRIVATE`` (Windows) this is
    ``np.empty``; without ``MADV_HUGEPAGE`` (macOS) the advice is skipped,
    and so it is where the kernel refuses it (built without transparent
    huge pages).
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty((rows, dim))
    length = -(-rows * dim * 8 // _HUGE_PAGE) * _HUGE_PAGE
    buf = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):
            buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64, count=rows * dim).reshape(rows, dim)


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


def sample_template(model: IdentityModel, identity, *, seed: SeedLike) -> Template:
    """Draw one fresh unit-norm sample of the given identity."""
    idx = _identity_index(model, identity)
    rng = as_generator(seed)
    while True:
        values = model.centers[idx] + model.within_noise_sigma * rng.standard_normal(model.dim)
        norm = np.linalg.norm(values)
        if norm > 0.0:
            return Template(values / norm, unit=True)


def enrollment_template(model: IdentityModel, identity) -> Template:
    """The canonical enrolled sample of an identity.

    Deterministic in the model's own seed, so independently built oracles
    (local and remote) enroll byte-identical templates.
    """
    idx = _identity_index(model, identity)
    return sample_template(model, idx, seed=make_rng(model.seed, "enroll", idx))


@dataclass(frozen=True, eq=False)
class BreakingSet:
    """Samples of non-target identities, probed in order by decision attacks.

    Row ``i`` of the read-only ``(n, d)`` array ``values`` is a unit-norm
    sample of identity ``labels[i]``.
    """

    labels: np.ndarray
    values: np.ndarray
    excluded: int

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def templates(self) -> tuple[Template, ...]:
        """The rows as templates, built on each call."""
        return tuple(Template(row, unit=True) for row in self.values)


def _to_samples(rows: np.ndarray, centers: np.ndarray, labels, sigma: float) -> None:
    """Turn the standard normals in ``rows`` into unit-norm samples of
    ``centers[labels]``, in place. The centers are gathered here so that
    the gathered copy is freed before the norms are taken."""
    rows *= sigma
    rows += centers[labels]
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate sample draw")  # probability zero
    rows /= norms[:, None]


def gen_breaking_set(
    model: IdentityModel,
    exclude_identity,
    size: int,
    *,
    seed: SeedLike,
) -> BreakingSet:
    """Draw ``size`` samples cycling round-robin over all non-target identities.

    The ``(size, d)`` values are drawn into an array from
    :func:`_mapped_empty`, so a breaking set that is freed leaves no
    resident memory behind, whatever its size.
    """
    idx = _identity_index(model, exclude_identity)
    check_count(size, "size", minimum=1)
    others = np.delete(np.arange(model.num_identities, dtype=np.intp), idx)
    labels = others[np.arange(size) % len(others)]

    values = _mapped_empty(size, model.dim)
    as_generator(seed).standard_normal(out=values)
    _to_samples(values, model.centers, labels, model.within_noise_sigma)
    labels.setflags(write=False)
    values.setflags(write=False)
    return BreakingSet(labels=labels, values=values, excluded=idx)


def _pair_scores(
    model: IdentityModel,
    metric: Metric,
    n_pairs: int,
    *,
    impostor: bool,
    seed: SeedLike,
) -> np.ndarray:
    """Scores of ``n_pairs`` pairs of fresh samples, drawn in chunks.

    The draws are the sampler's specification. Each chunk of
    ``m = min(_CHUNK_PAIRS, pairs left)`` pairs draws, in this order:

    1. ``i = integers(0, n, m)``, the first sample's identities;
    2. for impostor pairs, offsets ``integers(1, n, m)`` and
       ``j = (i + offset) % n``, so never the same identity; else ``j = i``;
    3. all ``m × d`` standard normals of the first samples ``a``;
    4. all ``m × d`` standard normals of the second samples ``b``.

    A sample is ``center + sigma * normals``, divided by its norm. SED is
    the einsum of the difference with itself; cosine is the einsum of the
    pair.

    Every draw is made on the calling thread, in that order, so the scores
    and the generator's final state are those of one thread drawing and
    finishing block after block. ``b`` is drawn block by block into a ring
    of two slots of about ``_SLOT_ELEMENTS`` values, which continues the
    stream exactly where one draw of all ``m × d`` normals would. Each
    block pair is handed, once its ``b`` is drawn, to one worker thread
    that lives for the call: it turns both blocks into samples, in place,
    and scores them, while the calling thread draws the next block (numpy
    releases the GIL in both). A slot is drawn into again only after the
    worker has finished the block that used it, every task of a chunk is
    finished before the next chunk draws, and the worker is joined before
    the call returns; an exception raised on it is raised from the call.

    Memory is one ``(_CHUNK_PAIRS, d)`` buffer from :func:`_mapped_empty`,
    reused by every chunk for ``a`` and unmapped on return, besides the
    scores and one chunk's identities: the ring, one row block of
    ``_BLOCK_ELEMENTS`` values, and half a block more while the worker
    gathers a slot's centers or takes its norms. With 40,000 pairs at d=256
    this peaks at 2.76 blocks; slots of a whole block each peaked at 4.26,
    and keeping a whole chunk's futures until its end at 3.23.
    """
    metric = Metric(metric)
    check_count(n_pairs, "n_pairs", minimum=1)
    rng = as_generator(seed)
    n, centers, sigma = model.num_identities, model.centers, model.within_noise_sigma
    out = np.empty(n_pairs, dtype=np.float64)
    a_buf = _mapped_empty(min(_CHUNK_PAIRS, n_pairs), model.dim)
    block = max(1, _SLOT_ELEMENTS // model.dim)
    ring = np.empty((2, min(block, len(a_buf)), model.dim))

    def finish(lo, hi, a, b, i, j):
        _to_samples(a, centers, i, sigma)
        _to_samples(b, centers, j, sigma)
        if metric is Metric.SED:
            np.subtract(a, b, out=b)
            out[lo:hi] = np.einsum("ij,ij->i", b, b)
        else:
            out[lo:hi] = np.einsum("ij,ij->i", a, b)

    with ThreadPoolExecutor(1) as worker:
        for done in range(0, n_pairs, _CHUNK_PAIRS):
            m = min(_CHUNK_PAIRS, n_pairs - done)
            i = rng.integers(0, n, size=m)
            if impostor:
                j = rng.integers(1, n, size=m)
                j += i
                j %= n
            else:
                j = i
            rng.standard_normal(out=a_buf[:m])
            pending = deque()  # tasks in flight, at most one per slot
            for k, lo in enumerate(range(0, m, block)):
                hi = min(lo + block, m)
                if len(pending) == 2:
                    pending.popleft().result()  # slot k % 2 is free again
                b = ring[k % 2, :hi - lo]
                rng.standard_normal(out=b)
                pending.append(worker.submit(finish, done + lo, done + hi, a_buf[lo:hi], b, i[lo:hi], j[lo:hi]))
            while pending:
                pending.popleft().result()
            del i, j  # freed before the next chunk draws its own
    return out


def impostor_scores(
    model: IdentityModel,
    metric: Metric,
    n_pairs: int,
    *,
    seed: SeedLike,
) -> np.ndarray:
    """Scores of fresh sample pairs drawn from two distinct identities."""
    return _pair_scores(model, metric, n_pairs, impostor=True, seed=seed)


def genuine_scores(
    model: IdentityModel,
    metric: Metric,
    n_pairs: int,
    *,
    seed: SeedLike,
) -> np.ndarray:
    """Scores of two independent fresh samples of one identity."""
    return _pair_scores(model, metric, n_pairs, impostor=False, seed=seed)


def calibrate_for_model(
    model: IdentityModel,
    metric: Metric,
    target_fmr: float,
    *,
    pairs: int,
    seed,
) -> CalibrationResult:
    """Calibrate a threshold on fresh impostor pairs drawn from the model."""
    scores = impostor_scores(model, metric, pairs, seed=seed)
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
        calibration = calibrate_for_model(model, metric, fmr, pairs=calibration_pairs, seed=calibration_seed)
        threshold = calibration.threshold.value
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
        oracle.enroll(str(i), enrollment_template(model, i).values)
    breaking_set = None
    if breaking_set_size is not None and oracle.mode is OracleMode.BINARY:
        if len(identities) != 1:
            raise ValueError("a breaking set is drawn for exactly one enrolled identity")
        breaking_set = gen_breaking_set(model, identities[0], breaking_set_size, seed=breaking_set_seed)
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
    if not isinstance(manifest, dict):
        raise ValueError(f"model manifest {manifest_path} is not a JSON object")
    if manifest.get("format") != _MODEL_FORMAT:
        raise ValueError(f"unsupported model format {manifest.get('format')!r}")
    centers = np.load(directory / "centers.npy")
    try:
        return IdentityModel(
            dim=manifest["dim"],
            num_identities=manifest["num_identities"],
            centers=centers,
            within_noise_sigma=manifest["within_noise_sigma"],
            center_concentration=manifest["center_concentration"],
            seed=manifest["seed"],
        )
    except KeyError as exc:
        raise ValueError(f"model manifest {manifest_path} is missing key {exc.args[0]!r}") from exc
