import csv
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from matchbreak.evaluation import (
    CSV_COLUMNS,
    ConvergenceCurve,
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    compute_aggregates,
    format_report,
    load_report,
    passes_system,
    reconstruction_loss,
    report_fingerprint,
    run_experiment,
    write_convergence_csv,
    write_report_csv,
    write_report_json,
)
from matchbreak.matcher import Metric, Threshold


class TestLosses:
    def test_perfect_reconstruction_is_zero_both_metrics(self):
        v = np.array([0.6, 0.8])
        assert reconstruction_loss(v, v, Metric.SED) == 0.0
        assert reconstruction_loss(v, v, Metric.COSINE) == 0.0

    def test_antipodal_cosine_loss_is_two(self):
        v = np.array([1.0, 0.0])
        assert reconstruction_loss(-v, v, Metric.COSINE) == pytest.approx(2.0)

    def test_sed_loss_is_squared_distance(self):
        assert reconstruction_loss([0.0, 0.0], [3.0, 4.0], Metric.SED) == 25.0

    def test_passes_system_tie_accepts(self):
        t = Threshold(25.0, Metric.SED)
        assert passes_system([0.0, 0.0], [3.0, 4.0], t)
        assert not passes_system([0.0, 0.0], [3.0, 4.001], t)


def tiny_config(**overrides):
    base = dict(
        dim=16,
        num_identities=12,
        num_targets=3,
        fmr_targets=(0.02,),
        attacks=({"name": "score-sed"},),
        calibration_pairs=20000,
        breaking_set_size=500,
        model_seed=3,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_grid_shape(self):
        report = run_experiment(tiny_config(
            fmr_targets=(0.02, 0.05),
            attacks=({"name": "score-sed"}, {"name": "hill", "budget": 50}),
        ))
        assert len(report.rows) == 2 * 3 * 2
        assert len(report.aggregates) == 4

    def test_algebraic_rows_exact(self):
        report = run_experiment(tiny_config())
        for row in report.rows:
            assert row.queries == 17
            assert row.loss < 1e-16
            assert row.passed

    def test_deterministic_across_runs_whatever_jobs(self):
        config = tiny_config(attacks=({"name": "score-sed"}, {"name": "binary-ours", "precision": 8}))
        sequential = run_experiment(config, jobs=1)
        threaded = run_experiment(config, jobs=4)
        assert report_fingerprint(sequential) == report_fingerprint(threaded)
        for a, b in zip(sequential.rows, threaded.rows):
            assert a.loss == b.loss
            assert a.queries == b.queries

    def test_fingerprint_ignores_timing_only(self):
        config = tiny_config()
        a = run_experiment(config)
        b = run_experiment(config)
        assert report_fingerprint(a) == report_fingerprint(b)
        assert report_fingerprint(a) != report_fingerprint(run_experiment(tiny_config(seed=12)))

    def test_failed_rows_are_recorded_not_raised(self):
        # a one-member breaking set almost never contains a false match
        config = tiny_config(
            attacks=({"name": "binary-baseline"},),
            breaking_set_size=1,
            fmr_targets=(0.001,),
            calibration_pairs=20000,
        )
        report = run_experiment(config)
        assert all(row.loss is None for row in report.rows)
        assert all(not row.passed for row in report.rows)
        assert all(row.error for row in report.rows)
        agg = report.aggregates[0]
        assert agg.failures == 3
        assert agg.mean_loss is None

    def test_binary_baseline_produces_curves(self):
        config = tiny_config(
            attacks=({"name": "binary-baseline"},),
            fmr_targets=(0.05,),
            breaking_set_size=800,
        )
        report = run_experiment(config)
        assert len(report.baseline_curves) == len(report.rows)
        for curve in report.baseline_curves:
            assert len(curve.points) >= 1
            queries = [q for q, _, _ in curve.points]
            accepted = [a for _, a, _ in curve.points]
            assert queries == sorted(queries)
            assert accepted == list(range(1, len(accepted) + 1))

    def test_binary_ours_uses_calibrated_threshold_by_default(self):
        config = tiny_config(attacks=({"name": "binary-ours", "precision": 12},), fmr_targets=(0.05,))
        report = run_experiment(config)
        for row in report.rows:
            assert row.loss is not None
            assert row.loss < 1e-2

    def test_ill_conditioned_boundary_draw_is_resampled(self):
        # On this seed the boundary points of target 1's binary-ours row, on
        # random directions, give a sphere system with condition number
        # 1.4e7; solved as drawn it lost the template (loss 0.93 in 2678
        # queries). The solver's guard resamples one point instead, at P = 20
        # more queries.
        seed = 1060813625
        config = ExperimentConfig(
            dim=128, num_identities=300, within_noise_sigma=0.1, fmr_targets=(0.01,),
            num_targets=2, calibration_pairs=100000, model_seed=seed, seed=seed,
            attacks=({"name": "score-sed"}, {"name": "hill", "budget": 4000},
                     {"name": "binary-baseline"}, {"name": "binary-ours", "directions": "random"}),
        )
        row = run_experiment(config).rows[-1]
        assert (row.identity, row.attack) == ("1", "binary-ours")
        assert row.loss < 1e-3
        assert row.passed
        assert row.queries == 2678 + 20

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown attack"):
            tiny_config(attacks=({"name": "bogus"},))
        with pytest.raises(ValueError, match="name"):
            tiny_config(attacks=({"precision": 3},))
        with pytest.raises(ValueError, match="empty"):
            tiny_config(attacks=())
        with pytest.raises(ValueError, match="num_targets"):
            tiny_config(num_targets=100)

    def test_attack_entry_with_dim_rejected_up_front(self):
        with pytest.raises(ValueError, match="comes from the config"):
            tiny_config(attacks=({"name": "score-sed", "dim": 16},))

    @pytest.mark.parametrize("overrides, error, match", [
        ({"attacks": ({"name": "hill", "budjet": 5},)}, ValueError, "budjet"),
        ({"attacks": ({"name": "hill", "step_size": -1},)}, ValueError, "step_size"),
        ({"attacks": ({"name": "binary-ours", "precision": 0},)}, ValueError, "precision"),
        ({"query_limit": 0}, ValueError, "query_limit"),
        ({"query_limit": True}, TypeError, "query_limit"),
        ({"oracle_noise_sigma": -0.5}, ValueError, "oracle_noise_sigma"),
        ({"seed": -1}, ValueError, "seed"),
        ({"model_seed": 2**64}, ValueError, "seed"),
        ({"model_seed": 1.5}, TypeError, "seed"),
        ({"attacks": ({"name": "binary-ours", "directions": "orthogonal"},)}, ValueError, "directions"),
        ({"oracle_noise_sigma": False}, TypeError, "oracle_noise_sigma"),
        ({"oracle_noise_sigma": "0"}, TypeError, "oracle_noise_sigma"),
        ({"fmr_targets": ("0.01",)}, TypeError, "fmr target"),
        ({"attacks": ({"name": "hill", "step_size": "0.07"},)}, TypeError, "step_size"),
        ({"attacks": ({"name": "hill", "step_size": True},)}, TypeError, "step_size"),
        ({"attacks": ({"name": "binary-ours", "threshold_estimate": "1.5"},)}, TypeError, "threshold_estimate"),
    ])
    def test_bad_field_refused_at_construction(self, overrides, error, match):
        with pytest.raises(error, match=match):
            tiny_config(**overrides)

    @pytest.mark.parametrize("metric, attack", [
        ("cosine", "binary-ours"), ("cosine", "score-sed"), ("sed", "score-cos"),
    ])
    def test_attack_metric_must_match_the_config(self, metric, attack):
        """An attack that needs the other metric is refused with the config,
        not by the oracle after the model is drawn and calibrated."""
        with pytest.raises(ValueError, match=f"{attack} needs the"):
            tiny_config(metric=metric, attacks=({"name": attack},))
        tiny_config(metric=metric, attacks=({"name": "hill"}, {"name": "binary-baseline"}))


@pytest.fixture(scope="module")
def report():
    return run_experiment(tiny_config(
        attacks=({"name": "score-sed"}, {"name": "binary-baseline"}),
        fmr_targets=(0.05,),
        breaking_set_size=800,
    ))


class TestReportFiles:
    def test_csv_columns_fixed(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == len(report.rows) + 1

    def test_csv_cells_parse_back(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        for parsed_row, row in zip(parsed, report.rows):
            assert parsed_row["identity"] == row.identity
            assert parsed_row["attack"] == row.attack
            assert float(parsed_row["loss"]) == row.loss  # repr round-trips exactly
            assert int(parsed_row["queries"]) == row.queries
            assert parsed_row["passed"] == ("true" if row.passed else "false")

    def test_json_round_trip_equal(self, report, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(report, path)
        back = load_report(path)
        assert back.config == report.config
        assert back.rows == report.rows
        assert back.aggregates == report.aggregates
        assert back.baseline_curves == report.baseline_curves
        assert report_fingerprint(back) == report_fingerprint(report)

    def test_tampered_aggregates_detected(self, report, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(report, path)
        doc = json.loads(path.read_text())
        doc["aggregates"][0]["mean_queries"] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="aggregates"):
            load_report(path)

    @pytest.mark.parametrize(("section", "key"), [
        ("rows", "queries"), ("rows", "metric"), ("baseline_curves", "points"), ("aggregates", "rows"),
    ])
    def test_missing_field_names_the_report_and_the_key(self, report, tmp_path, section, key):
        path = tmp_path / "report.json"
        write_report_json(report, path)
        doc = json.loads(path.read_text())
        del doc[section][0][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"report {re.escape(str(path))}.*'{key}'"):
            load_report(path)

    def test_config_missing_a_field_is_refused(self, report, tmp_path):
        """A report's config records every field. Without ``dim`` it would
        load with the default d=128 and print another fingerprint."""
        path = tmp_path / "report.json"
        write_report_json(report, path)
        doc = json.loads(path.read_text())
        del doc["config"]["dim"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"report {re.escape(str(path))}.*'dim'"):
            load_report(path)

    @pytest.mark.parametrize("section", ["rows", "baseline_curves", "aggregates"])
    def test_unknown_field_is_refused(self, report, tmp_path, section):
        path = tmp_path / "report.json"
        write_report_json(report, path)
        doc = json.loads(path.read_text())
        doc[section][0]["comment"] = "added by hand"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"report {re.escape(str(path))}.*'comment'"):
            load_report(path)

    def test_convergence_csv(self, report, tmp_path):
        path = tmp_path / "curves.csv"
        write_convergence_csv(report, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["identity", "fmr", "queries", "accepted", "loss"]
        assert len(rows) == 1 + sum(len(c.points) for c in report.baseline_curves)

    def test_empty_loss_cell_for_failed_rows(self, tmp_path):
        failed = run_experiment(tiny_config(
            attacks=({"name": "binary-baseline"},),
            breaking_set_size=1,
            fmr_targets=(0.001,),
        ))
        path = tmp_path / "failed.csv"
        write_report_csv(failed, path)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert all(row["loss"] == "" for row in parsed)

    def test_format_report_smoke(self, report):
        text = format_report(report)
        assert "score-sed" in text
        assert "binary-baseline" in text


def test_aggregates_recompute_matches():
    report = run_experiment(tiny_config())
    assert compute_aggregates(report.rows) == report.aggregates


def test_config_keeps_the_checked_values():
    """One number spelt two ways makes one config, and so one fingerprint."""
    spelt = tiny_config(
        oracle_noise_sigma=0, within_noise_sigma=np.float32(0.5), dim=np.int64(16),
        fmr_targets=(np.float64(0.02),), seed=np.uint8(11),
        attacks=({"name": "hill", "step_size": 1, "budget": 10}, {"name": "binary-ours", "threshold_estimate": 2}),
    )
    written = tiny_config(
        oracle_noise_sigma=0.0, within_noise_sigma=0.5, dim=16, fmr_targets=(0.02,), seed=11,
        attacks=({"name": "hill", "step_size": 1.0, "budget": 10}, {"name": "binary-ours", "threshold_estimate": 2.0}),
    )
    assert json.dumps(asdict(spelt), sort_keys=True) == json.dumps(asdict(written), sort_keys=True)
    assert [type(v) for v in asdict(spelt).values()] == [type(v) for v in asdict(written).values()]
    assert type(spelt.attacks[0]["step_size"]) is float and type(spelt.attacks[1]["threshold_estimate"]) is float


FRONTIER_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "experiments" / "frontier").glob("*.json"))


def test_the_frontier_configs_are_there():
    assert len(FRONTIER_CONFIGS) == 20


@pytest.mark.parametrize("path", FRONTIER_CONFIGS, ids=lambda p: p.stem)
def test_committed_frontier_config_builds(path):
    """``experiments/frontier.py`` runs each file with ``matchbreak
    experiment --config``, which builds the config this way; a change to the
    config's fields must not leave a committed file unloadable."""
    ExperimentConfig(**json.loads(path.read_text(encoding="utf-8")))


def test_config_dict_round_trip():
    config = tiny_config(fmr_targets=(0.01, 0.001), query_limit=5000)
    assert ExperimentConfig(**asdict(config)) == config
    assert ExperimentConfig(**json.loads(json.dumps(asdict(config)))) == config


REPORT_JSON = """\
{
  "aggregates": [
    {
      "attack": "binary-baseline",
      "failures": 1,
      "fmr": 0.05,
      "mean_loss": 0.30000000000000004,
      "mean_queries": 4.0,
      "mean_time_s": 0.1875,
      "median_loss": 0.30000000000000004,
      "rows": 2,
      "std_loss": 0.0,
      "success_rate": 0.5
    }
  ],
  "baseline_curves": [
    {
      "fmr": 0.05,
      "identity": "0",
      "points": [
        [
          2,
          1,
          0.30000000000000004
        ]
      ]
    }
  ],
  "config": {
    "attacks": [
      {
        "budget": 5,
        "name": "binary-baseline"
      }
    ],
    "breaking_set_size": 5,
    "calibration_pairs": 10,
    "center_concentration": 0.0,
    "dim": 4,
    "fmr_targets": [
      0.05
    ],
    "metric": "sed",
    "model_seed": 2,
    "num_identities": 3,
    "num_targets": 2,
    "oracle_noise_sigma": 0.0,
    "query_limit": null,
    "seed": 3,
    "within_noise_sigma": 0.1
  },
  "format": "matchbreak-report-v1",
  "rows": [
    {
      "attack": "binary-baseline",
      "error": null,
      "fmr": 0.05,
      "identity": "0",
      "loss": 0.30000000000000004,
      "metric": "sed",
      "passed": true,
      "queries": 5,
      "time_s": 0.25
    },
    {
      "attack": "binary-baseline",
      "error": "no false match",
      "fmr": 0.05,
      "identity": "1",
      "loss": null,
      "metric": "sed",
      "passed": false,
      "queries": 3,
      "time_s": 0.125
    }
  ]
}
"""


def pinned_report():
    config = ExperimentConfig(
        dim=4, num_identities=3, num_targets=2, fmr_targets=(0.05,),
        attacks=({"name": "binary-baseline", "budget": 5},),
        calibration_pairs=10, breaking_set_size=5, model_seed=2, seed=3,
    )
    rows = (
        ExperimentRow(identity="0", attack="binary-baseline", metric=Metric.SED, fmr=0.05,
                      loss=0.1 + 0.2, queries=5, time_s=0.25, passed=True),
        ExperimentRow(identity="1", attack="binary-baseline", metric=Metric.SED, fmr=0.05,
                      loss=None, queries=3, time_s=0.125, passed=False, error="no false match"),
    )
    curve = ConvergenceCurve(identity="0", fmr=0.05, points=((2, 1, 0.1 + 0.2),))
    return ExperimentReport(
        config=config, rows=rows, aggregates=compute_aggregates(rows), baseline_curves=(curve,)
    )


def test_report_json_text_is_pinned(tmp_path):
    """Key names, the metric's value, null losses and repr floats of a
    hand-built report with one served and one failed row."""
    report = pinned_report()
    path = tmp_path / "report.json"
    write_report_json(report, path)
    assert path.read_text(encoding="utf-8") == REPORT_JSON
    assert load_report(path) == report


# The pinned report as it was written while the config had a ``unit_norm`` field.
UNIT_NORM_REPORT_JSON = REPORT_JSON.replace('"seed": 3,\n', '"seed": 3,\n    "unit_norm": true,\n')


def test_a_report_with_unit_norm_true_loads_under_the_new_fingerprint(tmp_path):
    """Every template is unit-norm now, so the field says nothing and is
    dropped; the fingerprint is that of the config without it."""
    assert UNIT_NORM_REPORT_JSON.count('"unit_norm": true') == 1
    path = tmp_path / "report.json"
    path.write_text(UNIT_NORM_REPORT_JSON, encoding="utf-8")
    loaded = load_report(path)
    assert loaded == pinned_report()
    assert report_fingerprint(loaded) == report_fingerprint(pinned_report())


def test_a_report_of_raw_templates_is_refused(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(UNIT_NORM_REPORT_JSON.replace('"unit_norm": true', '"unit_norm": false'), encoding="utf-8")
    with pytest.raises(ValueError, match=f"report {re.escape(str(path))} ran with unit_norm false"):
        load_report(path)
