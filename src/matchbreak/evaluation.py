"""Experiment harness: losses, batch runs, and report files.

A run sweeps targets x attacks x false-match rates over one synthetic
population, records one row per attempt, and aggregates per attack and rate.
Rows run one after another and are deterministic given the config: every
row derives its own random streams from the config seed and its grid
position. Wall-clock fields are the only nondeterministic part; the report
fingerprint excludes them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .attacks import ATTACKS, make_attack
from .errors import ATTACK_FAILURES
from .matcher import Metric, Threshold, score
from .rng import check_seed, make_rng
from .synth import (
    build_scenario,
    calibrate_for_model,
    enrollment_template,
    gen_identity_model,
)
from .validation import check_count, check_nonnegative, check_probability

CSV_COLUMNS = ("identity", "attack", "metric", "fmr", "loss", "queries", "time_s", "passed")

_REPORT_FORMAT = "matchbreak-report-v1"


def reconstruction_loss(recovered, truth, metric: Metric) -> float:
    """Dissimilarity between a reconstruction and the enrolled template.

    Squared Euclidean distance for the distance metric; ``1 - cosine`` for
    the angular one, so both losses are zero at a perfect reconstruction.
    """
    metric = Metric(metric)
    if metric is Metric.SED:
        return score(metric, recovered, truth)
    return 1.0 - score(metric, recovered, truth)


def passes_system(recovered, truth, threshold: Threshold) -> bool:
    """Would presenting the reconstruction to a matcher enrolled with
    ``truth`` be accepted under ``threshold``?"""
    return threshold.accepts(score(threshold.metric, truth, recovered))


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int = 128
    num_identities: int = 300
    within_noise_sigma: float = 0.1
    center_concentration: float = 0.0
    metric: Metric = Metric.SED
    fmr_targets: tuple[float, ...] = (0.01,)
    num_targets: int = 10
    attacks: tuple[dict, ...] = ({"name": "score-sed"},)
    oracle_noise_sigma: float = 0.0
    query_limit: int | None = None
    calibration_pairs: int = 100000
    breaking_set_size: int = 4000
    model_seed: int = 7
    seed: int = 1

    def __post_init__(self):
        """Check every field and keep the value its check returns, so that
        one number spelt two ways (``0`` and ``0.0``) makes one fingerprint."""
        checked = {
            "metric": Metric(self.metric),
            "dim": check_count(self.dim, "dim", minimum=2),
            "num_identities": check_count(self.num_identities, "num_identities", minimum=2),
            "within_noise_sigma": check_nonnegative(self.within_noise_sigma, "within_noise_sigma"),
            "center_concentration": check_nonnegative(self.center_concentration, "center_concentration"),
            "oracle_noise_sigma": check_nonnegative(self.oracle_noise_sigma, "oracle_noise_sigma"),
            "num_targets": check_count(self.num_targets, "num_targets", minimum=1),
            "calibration_pairs": check_count(self.calibration_pairs, "calibration_pairs", minimum=1),
            "breaking_set_size": check_count(self.breaking_set_size, "breaking_set_size", minimum=1),
            "fmr_targets": tuple(check_probability(f, "fmr target") for f in self.fmr_targets),
            "query_limit": None if self.query_limit is None else check_count(self.query_limit, "query_limit"),
            "model_seed": check_seed(self.model_seed),
            "seed": check_seed(self.seed),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.num_targets > self.num_identities:
            raise ValueError(
                f"num_targets {self.num_targets} exceeds num_identities {self.num_identities}"
            )
        if not self.fmr_targets:
            raise ValueError("fmr_targets must not be empty")
        attacks = []
        for a in self.attacks:
            params = dict(a)
            if "name" not in params:
                raise ValueError(f"attack entry without a name: {a!r}")
            if "dim" in params:
                raise ValueError(f"attack entry {a!r} sets 'dim'; the dimension comes from the config's dim")
            # Build the attack now, so that a bad name or parameter is refused
            # before anything is drawn; 1.0 stands in for the calibrated threshold.
            name = params.pop("name")
            attack = make_attack(name, dim=self.dim, threshold=1.0, **params)
            if attack.metric not in (None, self.metric):
                raise ValueError(f"{attack.name} needs the {attack.metric.value} metric, not {self.metric.value}")
            attacks.append({"name": name, **{key: getattr(attack, key) for key in params}})
        if not attacks:
            raise ValueError("attack list must not be empty")
        object.__setattr__(self, "attacks", tuple(attacks))


@dataclass(frozen=True)
class ExperimentRow:
    identity: str
    attack: str
    metric: Metric
    fmr: float
    loss: float | None
    queries: int
    time_s: float
    passed: bool
    error: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "metric", Metric(self.metric))


@dataclass(frozen=True)
class AggregateStats:
    attack: str
    fmr: float
    rows: int
    failures: int
    mean_loss: float | None
    median_loss: float | None
    std_loss: float | None
    success_rate: float
    mean_queries: float
    mean_time_s: float


@dataclass(frozen=True)
class ConvergenceCurve:
    """Running-average loss of a breaking-set averaging run, per acceptance."""

    identity: str
    fmr: float
    points: tuple[tuple[int, int, float], ...]  # (queries, accepted, loss)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[ExperimentRow, ...]
    aggregates: tuple[AggregateStats, ...]
    baseline_curves: tuple[ConvergenceCurve, ...] = ()


def compute_aggregates(rows) -> tuple[AggregateStats, ...]:
    groups: dict[tuple[str, float], list[ExperimentRow]] = {}
    for row in rows:
        groups.setdefault((row.attack, row.fmr), []).append(row)
    out = []
    for (attack, fmr), members in groups.items():
        losses = [r.loss for r in members if r.loss is not None]
        out.append(
            AggregateStats(
                attack=attack,
                fmr=fmr,
                rows=len(members),
                failures=sum(1 for r in members if r.loss is None),
                mean_loss=float(np.mean(losses)) if losses else None,
                median_loss=float(np.median(losses)) if losses else None,
                std_loss=float(np.std(losses)) if losses else None,
                success_rate=sum(1 for r in members if r.passed) / len(members),
                mean_queries=float(np.mean([r.queries for r in members])),
                mean_time_s=float(np.mean([r.time_s for r in members])),
            )
        )
    return tuple(out)


def _convergence_points(breaking_set, accepted_indices, truth, metric) -> tuple:
    points = []
    running = None
    for count, idx in enumerate(accepted_indices, start=1):
        values = breaking_set.values[idx]
        running = values.copy() if running is None else running + values
        points.append((idx + 1, count, reconstruction_loss(running / count, truth, metric)))
    return tuple(points)


def run_experiment(config: ExperimentConfig, *, jobs: int = 1) -> ExperimentReport:
    """Run the full grid, one row after another, and return the report.

    ``jobs`` must be at least 1 and is otherwise ignored; it is accepted so
    that callers passing a worker count keep working.
    """
    check_count(jobs, "jobs", minimum=1)
    model = gen_identity_model(
        config.dim,
        config.num_identities,
        within_noise_sigma=config.within_noise_sigma,
        center_concentration=config.center_concentration,
        seed=config.model_seed,
    )
    rows, curves = [], []
    for fi, fmr in enumerate(config.fmr_targets):
        threshold = calibrate_for_model(
            model,
            config.metric,
            fmr,
            pairs=config.calibration_pairs,
            seed=make_rng(config.seed, "calibration", fi),
        ).threshold
        for ti in range(config.num_targets):
            for ai, attack_params in enumerate(config.attacks):
                row, curve = _run_row(config, model, threshold, fi, ti, ai, attack_params)
                rows.append(row)
                if curve is not None:
                    curves.append(curve)
    rows = tuple(rows)
    return ExperimentReport(
        config=config, rows=rows, aggregates=compute_aggregates(rows), baseline_curves=tuple(curves)
    )


def _run_row(config, model, threshold, fi, ti, ai, attack_params):
    params = dict(attack_params)
    name = params.pop("name")
    fmr = config.fmr_targets[fi]
    oracle, breaking_set = build_scenario(
        model, config.metric, ATTACKS[name].mode, [ti],
        threshold=threshold.value,
        noise_sigma=config.oracle_noise_sigma,
        noise_seed=make_rng(config.seed, "noise", fi, ti, ai),
        query_limit=config.query_limit,
        breaking_set_size=config.breaking_set_size,
        breaking_set_seed=make_rng(config.seed, "breaking-set", fi, ti, ai),
    )
    truth = enrollment_template(model, ti)
    attack = make_attack(name, dim=config.dim, threshold=threshold.value, **params)
    started = time.perf_counter()
    try:
        result = attack.reconstruct(
            oracle, str(ti),
            seed=make_rng(config.seed, "attack", fi, ti, ai),
            breaking_set=breaking_set,
        )
    except ATTACK_FAILURES as exc:
        row = ExperimentRow(
            identity=str(ti), attack=name, metric=config.metric, fmr=fmr,
            loss=None, queries=exc.queries_used,
            time_s=time.perf_counter() - started, passed=False, error=str(exc),
        )
        return row, None
    loss = reconstruction_loss(result.recovered.values, truth.values, config.metric)
    row = ExperimentRow(
        identity=str(ti), attack=name, metric=config.metric, fmr=fmr,
        loss=loss, queries=result.queries_used,
        time_s=result.wall_time_seconds,
        passed=passes_system(result.recovered.values, truth.values, threshold),
    )
    curve = None
    if name == "binary-baseline":
        curve = ConvergenceCurve(
            identity=str(ti), fmr=fmr,
            points=_convergence_points(
                breaking_set, result.params["accepted_indices"], truth.values, config.metric
            ),
        )
    return row, curve


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Metric):
        return value.value
    return str(value)


def write_report_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            doc = asdict(row)
            writer.writerow([_csv_cell(doc[col]) for col in CSV_COLUMNS])


def write_convergence_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("identity", "fmr", "queries", "accepted", "loss"))
        for curve in report.baseline_curves:
            for queries, accepted, loss in curve.points:
                writer.writerow(
                    [curve.identity, _csv_cell(curve.fmr), queries, accepted, _csv_cell(loss)]
                )


def report_to_dict(report: ExperimentReport) -> dict:
    return {"format": _REPORT_FORMAT, **asdict(report)}


def write_report_json(report: ExperimentReport, path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_report(path) -> ExperimentReport:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"report {path} is not a JSON object")
    if doc.get("format") != _REPORT_FORMAT:
        raise ValueError(f"unsupported report format {doc.get('format')!r}")
    try:
        config_doc, row_docs, agg_docs = dict(doc["config"]), doc["rows"], doc["aggregates"]
        # Reports from before every template was unit-norm record the mode.
        unit_norm = config_doc.pop("unit_norm", True)
        if unit_norm is not True:
            raise ValueError(f"report {path} ran with unit_norm {json.dumps(unit_norm)}; only unit-norm runs load")
        # A report records every field; only a config written by hand may rely on defaults.
        missing = [f.name for f in fields(ExperimentConfig) if f.name not in config_doc]
        if missing:
            raise KeyError(missing[0])
        config = ExperimentConfig(**config_doc)
        rows = tuple(ExperimentRow(**r) for r in row_docs)
        curves = tuple(ConvergenceCurve(**c) for c in doc.get("baseline_curves", ()))
        stored = tuple(AggregateStats(**agg) for agg in agg_docs)
    except KeyError as exc:
        raise ValueError(f"report {path} is missing key {exc.args[0]!r}") from exc
    except TypeError as exc:  # a missing or unknown field of a row, curve or aggregate
        raise ValueError(f"report {path}: {exc}") from exc
    recomputed = compute_aggregates(rows)
    if _aggregates_differ(stored, recomputed):
        raise ValueError("aggregates in the report do not match its rows")
    return ExperimentReport(config=config, rows=rows, aggregates=stored, baseline_curves=curves)


def _aggregates_differ(stored, recomputed) -> bool:
    if len(stored) != len(recomputed):
        return True
    for a, b in zip(sorted(stored, key=lambda s: (s.attack, s.fmr)),
                    sorted(recomputed, key=lambda s: (s.attack, s.fmr))):
        da, db = asdict(a), asdict(b)
        for key, va in da.items():
            vb = db[key]
            if isinstance(va, float) and isinstance(vb, float):
                if not np.isclose(va, vb, rtol=1e-9, atol=1e-12, equal_nan=True):
                    return True
            elif va != vb:
                return True
    return False


def report_fingerprint(report: ExperimentReport) -> str:
    """Digest of everything in the report except wall-clock fields.

    Two runs of the same config are byte-identical under this fingerprint
    even though their timings differ.
    """
    doc = report_to_dict(report)
    for row in doc["rows"]:
        row.pop("time_s")
    for agg in doc["aggregates"]:
        agg.pop("mean_time_s")
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def format_report(report: ExperimentReport) -> str:
    """Human-readable aggregate table."""
    lines = [
        f"{'attack':<16} {'fmr':>8} {'rows':>5} {'fail':>5} {'mean loss':>12} "
        f"{'median loss':>12} {'pass rate':>9} {'mean queries':>13}"
    ]
    for agg in report.aggregates:
        mean_loss = "-" if agg.mean_loss is None else f"{agg.mean_loss:.3e}"
        median_loss = "-" if agg.median_loss is None else f"{agg.median_loss:.3e}"
        lines.append(
            f"{agg.attack:<16} {agg.fmr:>8.4g} {agg.rows:>5} {agg.failures:>5} "
            f"{mean_loss:>12} {median_loss:>12} {agg.success_rate:>9.2%} {agg.mean_queries:>13.1f}"
        )
    return "\n".join(lines)
