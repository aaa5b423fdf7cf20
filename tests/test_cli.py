import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from matchbreak.attacks import ATTACKS, make_attack
from matchbreak.cli import main
from matchbreak.matcher import Metric, OracleMode
from matchbreak.netoracle import RemoteOracle, server_from_config
from matchbreak.rng import make_rng
from matchbreak.synth import build_scenario, enrollment_template, load_model
from matchbreak.templates import read_template


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model"
    assert run_cli("gen-model", "--out", path, "--dim", 16, "--identities", 20,
                   "--within-noise", 0.05, "--seed", 3) == 0
    return path


class TestGenModel:
    def test_writes_loadable_model(self, model_dir):
        model = load_model(model_dir)
        assert model.dim == 16
        assert model.num_identities == 20

    def test_deterministic_artifacts(self, tmp_path):
        for name in ("a", "b"):
            run_cli("gen-model", "--out", tmp_path / name, "--dim", 8, "--identities", 4, "--seed", 5)
        assert (tmp_path / "a/model.json").read_bytes() == (tmp_path / "b/model.json").read_bytes()
        assert (tmp_path / "a/centers.npy").read_bytes() == (tmp_path / "b/centers.npy").read_bytes()

    def test_single_identity_rejected_as_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("gen-model", "--out", tmp_path / "m", "--identities", 1)
        assert info.value.code == 2
        assert "two identities" in capsys.readouterr().err


class TestCalibrate:
    def test_prints_threshold_and_writes_json(self, model_dir, tmp_path, capsys):
        json_path = tmp_path / "cal.json"
        assert run_cli("calibrate", "--model", model_dir, "--fmr", 0.05,
                       "--pairs", 20000, "--json", json_path) == 0
        out = capsys.readouterr().out
        match = re.search(r"threshold=([0-9.e+-]+)", out)
        assert match
        doc = json.loads(json_path.read_text())
        assert doc["threshold"] == float(match.group(1))
        assert doc["target_fmr"] == 0.05
        assert 0.0 <= doc["achieved_fmr"] <= 0.05

    def test_missing_model_is_runtime_error(self, tmp_path, capsys):
        assert run_cli("calibrate", "--model", tmp_path / "nope", "--fmr", 0.01) == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_without_dim_names_the_key(self, model_dir, tmp_path, capsys):
        broken = tmp_path / "model"
        shutil.copytree(model_dir, broken)
        manifest = json.loads((broken / "model.json").read_text())
        del manifest["dim"]
        (broken / "model.json").write_text(json.dumps(manifest))
        assert run_cli("calibrate", "--model", broken, "--fmr", 0.01) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'dim'" in err and "Traceback" not in err

    def test_manifest_that_is_not_an_object(self, model_dir, tmp_path, capsys):
        broken = tmp_path / "model"
        shutil.copytree(model_dir, broken)
        (broken / "model.json").write_text("[1]")
        assert run_cli("calibrate", "--model", broken, "--fmr", 0.01) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a JSON object" in err and "Traceback" not in err


class TestAttack:
    def test_score_sed_writes_template_and_result(self, model_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("attack", "--name", "score-sed", "--model", model_dir,
                       "--target", 2, "--out", out, "--fmr", 0.05, "--pairs", 20000) == 0
        stdout = capsys.readouterr().out
        assert "queries=17" in stdout
        assert "passed=true" in stdout

        recovered = read_template(out / "recovered.tpl")
        truth = enrollment_template(load_model(model_dir), 2)
        assert float(np.sum((recovered.values - truth.values) ** 2)) < 1e-16

        doc = json.loads((out / "result.json").read_text())
        assert doc["attack"] == "score-sed"
        assert doc["queries"] == 17
        assert doc["loss"] < 1e-16
        assert doc["passed"] is True

    def test_cosine_attack_defaults_to_cosine_metric(self, model_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("attack", "--name", "score-cos", "--model", model_dir,
                       "--target", 0, "--out", out, "--fmr", 0.05, "--pairs", 20000) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["metric"] == "cosine"
        assert doc["queries"] == 16

    def test_failure_writes_error_json_and_exits_1(self, model_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("attack", "--name", "binary-baseline", "--model", model_dir,
                       "--target", 0, "--out", out, "--fmr", 0.01, "--pairs", 20000,
                       "--breaking-set-size", 1)
        assert code == 1
        assert "attack failed" in capsys.readouterr().err
        doc = json.loads((out / "result.json").read_text())
        assert doc["error_type"] == "NoFalseMatchError"
        assert doc["queries"] == 1
        assert not (out / "recovered.tpl").exists()

    def test_lockout_writes_error_json_and_exits_1(self, model_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("attack", "--name", "binary-ours", "--model", model_dir,
                       "--target", 0, "--out", out, "--fmr", 0.05, "--pairs", 20000,
                       "--query-limit", 50)
        assert code == 1
        assert "attack failed" in capsys.readouterr().err
        doc = json.loads((out / "result.json").read_text())
        assert doc["error_type"] == "LockedOutError"
        assert doc["queries"] == 50
        assert not (out / "recovered.tpl").exists()

    def test_failed_remote_attack_reports_its_own_queries(self, model_dir, tmp_path):
        """A failed attack over the wire reports the queries it got answered,
        not the server's total over every client."""
        doc = {"model": str(model_dir), "mode": "binary", "threshold": 1e-6, "identities": [0]}
        out = tmp_path / "run"
        with server_from_config(doc) as server:
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.BINARY) as other:
                for _ in range(25):
                    other.authenticate_binary("0", np.zeros(16))
            host, port = server.address
            code = run_cli("attack", "--name", "binary-ours", "--model", model_dir,
                           "--target", 0, "--out", out, "--fmr", 0.05, "--pairs", 20000,
                           "--remote", f"{host}:{port}", "--max-seed-attempts", 1)
            assert server.oracle.queries == 26
        assert code == 1
        doc = json.loads((out / "result.json").read_text())
        assert doc["error_type"] == "NoFalseMatchError"
        assert doc["queries"] == 1

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_params_are_plain_json(self, model_dir, name):
        """``result.json`` writes an attack's ``params`` as they are."""
        model = load_model(model_dir)
        cls = ATTACKS[name]
        oracle, breaking_set = build_scenario(
            model, cls.metric or Metric.SED, cls.mode, [1], fmr=0.05, calibration_pairs=20000,
            breaking_set_size=1000,
        )
        extra = {"budget": 20, "record_trace": True} if name == "hill" else {}
        attack = make_attack(name, dim=model.dim, threshold=oracle.threshold.value, **extra)
        result = attack.reconstruct(oracle, "1", seed=make_rng(5), breaking_set=breaking_set)
        json.dumps(result.params)

    def test_unknown_attack_name_is_usage_error(self, model_dir, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli("attack", "--name", "quantum", "--model", model_dir,
                    "--target", 0, "--out", tmp_path / "x")
        assert info.value.code == 2

    def test_target_out_of_range(self, model_dir, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli("attack", "--name", "score-sed", "--model", model_dir,
                    "--target", 99, "--out", tmp_path / "x")
        assert info.value.code == 2


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("exp") / "config.json"
    path.write_text(json.dumps({
        "dim": 16,
        "num_identities": 12,
        "num_targets": 2,
        "fmr_targets": [0.02],
        "attacks": [{"name": "score-sed"}, {"name": "binary-baseline"}],
        "calibration_pairs": 20000,
        "breaking_set_size": 800,
        "model_seed": 3,
        "seed": 11,
    }))
    return path


class TestExperimentAndReport:
    def fingerprint_from(self, text):
        match = re.search(r"fingerprint=([0-9a-f]{64})", text)
        assert match, text
        return match.group(1)

    def test_experiment_writes_reports_deterministically(self, config_path, tmp_path, capsys):
        prints = []
        for name in ("one", "two"):
            assert run_cli("experiment", "--config", config_path, "--out", tmp_path / name) == 0
            prints.append(capsys.readouterr().out)
        assert self.fingerprint_from(prints[0]) == self.fingerprint_from(prints[1])
        for name in ("one", "two"):
            assert (tmp_path / name / "report.csv").exists()
            assert (tmp_path / name / "report.json").exists()
            assert (tmp_path / name / "convergence.csv").exists()

    def test_report_round_trip_and_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "exp"
        run_cli("experiment", "--config", config_path, "--out", out)
        first = self.fingerprint_from(capsys.readouterr().out)

        csv_out = tmp_path / "again.csv"
        assert run_cli("report", "--in", out / "report.json", "--csv", csv_out) == 0
        assert self.fingerprint_from(capsys.readouterr().out) == first
        assert csv_out.read_bytes() == (out / "report.csv").read_bytes()

    def test_tampered_report_fails(self, config_path, tmp_path, capsys):
        out = tmp_path / "exp"
        run_cli("experiment", "--config", config_path, "--out", out)
        capsys.readouterr()
        doc = json.loads((out / "report.json").read_text())
        doc["aggregates"][0]["mean_queries"] += 1.0
        (out / "report.json").write_text(json.dumps(doc))
        assert run_cli("report", "--in", out / "report.json") == 1
        assert "aggregates" in capsys.readouterr().err

    def test_report_without_rows_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "matchbreak-report-v1", "config": {}, "aggregates": []}))
        assert run_cli("report", "--in", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'rows'" in err and "Traceback" not in err

    def test_report_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("[1]")
        assert run_cli("report", "--in", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a JSON object" in err and "Traceback" not in err

    def test_bad_config_refused_before_anything_is_drawn(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"attacks": [{"name": "hill", "budjet": 5}]}))
        assert run_cli("experiment", "--config", path, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "budjet" in err
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_fingerprint(self, config_path, tmp_path, capsys):
        run_cli("experiment", "--config", config_path, "--out", tmp_path / "a")
        base = self.fingerprint_from(capsys.readouterr().out)
        run_cli("experiment", "--config", config_path, "--out", tmp_path / "b", "--seed", 99)
        assert self.fingerprint_from(capsys.readouterr().out) != base


class TestServe:
    def test_subprocess_server_answers_auth(self, model_dir, tmp_path):
        config = tmp_path / "serve.json"
        config.write_text(json.dumps({
            "model": str(model_dir),
            "metric": "sed",
            "mode": "score",
            "host": "127.0.0.1",
            "port": 0,
        }))
        proc = subprocess.Popen(
            [sys.executable, "-m", "matchbreak.cli", "serve", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"on ([\d.]+):(\d+)", banner)
            assert match, banner
            assert "serving sed/score oracle (20 identities)" in banner
            address = (match.group(1), int(match.group(2)))
            truth = enrollment_template(load_model(model_dir), 4)
            with RemoteOracle(address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                assert remote.authenticate_score("4", truth.values) == 0.0
                assert remote.queries == 1
        finally:
            proc.terminate()
            proc.communicate(timeout=10)
