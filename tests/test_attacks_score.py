import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbreak.attacks import (
    CosineScoreAttack,
    HillClimbAttack,
    SedScoreAttack,
    make_attack,
)
from matchbreak.errors import OracleModeError
from matchbreak.matcher import MatchingOracle, Metric, OracleConfig, OracleMode, Threshold
from matchbreak.rng import make_rng, random_unit_vector, random_unit_vectors
from matchbreak.synth import enrollment_template, gen_identity_model


@pytest.fixture(scope="module")
def model():
    return gen_identity_model(128, 40, within_noise_sigma=0.1, seed=2)


def score_oracle(truth_values, metric=Metric.SED, noise_sigma=0.0, noise_seed=0):
    oracle = MatchingOracle(
        OracleConfig(metric=metric, mode=OracleMode.SCORE, noise_sigma=noise_sigma),
        noise_seed=noise_seed,
    )
    oracle.enroll("t", truth_values)
    return oracle


class TestSedScoreAttack:
    def test_exact_scores_recover_template(self, model):
        truth = enrollment_template(model, 0)
        oracle = score_oracle(truth.values)
        result = SedScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)
        loss = float(np.sum((result.recovered.values - truth.values) ** 2))
        assert loss < 1e-16

    def test_uses_exactly_dim_plus_one_queries(self, model):
        truth = enrollment_template(model, 1)
        oracle = score_oracle(truth.values)
        result = SedScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)
        assert result.queries_used == 129
        assert oracle.queries == 129

    def test_recovers_norm_not_just_direction(self):
        # the distance equations pin the full vector, scale included
        truth = np.array([2.0, -3.0, 0.5, 4.0])
        oracle = score_oracle(truth)
        result = SedScoreAttack(dim=4).reconstruct(oracle, "t", seed=3)
        assert np.allclose(result.recovered.values, truth, atol=1e-12)

    def test_query_accounting_is_ledger_based(self, model):
        truth = enrollment_template(model, 2)
        oracle = score_oracle(truth.values)
        attack = SedScoreAttack(dim=128)
        first = attack.reconstruct(oracle, "t", seed=1)
        second = attack.reconstruct(oracle, "t", seed=2)
        assert first.queries_used == second.queries_used == 129
        assert oracle.queries == 258

    def test_deterministic_given_seed(self, model):
        truth = enrollment_template(model, 3)
        a = SedScoreAttack(dim=128).reconstruct(score_oracle(truth.values), "t", seed=9)
        b = SedScoreAttack(dim=128).reconstruct(score_oracle(truth.values), "t", seed=9)
        assert np.array_equal(a.recovered.values, b.recovered.values)

    def test_rejects_binary_oracle(self, model):
        truth = enrollment_template(model, 0)
        oracle = MatchingOracle(
            OracleConfig(Metric.SED, OracleMode.BINARY, threshold=Threshold(1.0, Metric.SED))
        )
        oracle.enroll("t", truth.values)
        with pytest.raises(OracleModeError):
            SedScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)

    def test_rejects_cosine_oracle(self, model):
        truth = enrollment_template(model, 0)
        oracle = score_oracle(truth.values, metric=Metric.COSINE)
        with pytest.raises(OracleModeError, match="sed"):
            SedScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)


class TestCosineScoreAttack:
    def test_exact_scores_recover_direction(self, model):
        truth = enrollment_template(model, 5)
        oracle = score_oracle(truth.values, metric=Metric.COSINE)
        result = CosineScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)
        loss = 1.0 - float(result.recovered.values @ truth.values)
        assert loss < 1e-10
        assert result.recovered.unit

    def test_uses_exactly_dim_queries(self, model):
        truth = enrollment_template(model, 6)
        oracle = score_oracle(truth.values, metric=Metric.COSINE)
        result = CosineScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)
        assert result.queries_used == 128

    def test_norm_of_target_is_unrecoverable_and_irrelevant(self):
        # cosine scores ignore the enrolled norm; the attack returns a direction
        direction = np.array([0.6, 0.8])
        oracle = score_oracle(direction * 7.3, metric=Metric.COSINE)
        result = CosineScoreAttack(dim=2).reconstruct(oracle, "t", seed=4)
        assert np.allclose(result.recovered.values, direction, atol=1e-12)

    def test_noisy_scores_give_small_but_nonzero_loss(self, model):
        truth = enrollment_template(model, 7)
        oracle = score_oracle(truth.values, metric=Metric.COSINE, noise_sigma=0.01, noise_seed=3)
        result = CosineScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)
        loss = 1.0 - float(result.recovered.values @ truth.values)
        assert 0.0 < loss < 0.1

    def test_rejects_sed_oracle(self, model):
        truth = enrollment_template(model, 0)
        oracle = score_oracle(truth.values, metric=Metric.SED)
        with pytest.raises(OracleModeError, match="cosine"):
            CosineScoreAttack(dim=128).reconstruct(oracle, "t", seed=1)


@st.composite
def templates(draw):
    """A template in d = 1 to 64 with a norm from 1e-3 to 1e3."""
    d = draw(st.integers(1, 64))
    direction = random_unit_vector(make_rng(draw(st.integers(0, 2**32 - 1))), d)
    return direction * 10.0 ** draw(st.floats(-3.0, 3.0))


class TestClosedForms:
    """Both score attacks read the template off one batch of scores in
    closed form, whatever its dimension and norm."""

    @settings(max_examples=100, deadline=None)
    @given(templates(), st.integers(0, 2**32 - 1))
    def test_sed_recovers_the_template_in_dim_plus_one_queries(self, truth, seed):
        result = SedScoreAttack(dim=truth.size).reconstruct(score_oracle(truth), "t", seed=seed)
        assert result.queries_used == truth.size + 1
        assert np.sum((result.recovered.values - truth) ** 2) <= 1e-20 * (truth @ truth)

    @settings(max_examples=100, deadline=None)
    @given(templates(), st.integers(0, 2**32 - 1))
    def test_cos_recovers_the_direction_in_dim_queries(self, truth, seed):
        oracle = score_oracle(truth, metric=Metric.COSINE)
        result = CosineScoreAttack(dim=truth.size).reconstruct(oracle, "t", seed=seed)
        assert result.queries_used == truth.size
        assert 1.0 - result.recovered.values @ truth / np.linalg.norm(truth) <= 1e-12

    @pytest.mark.parametrize(("attack", "metric"), [
        (SedScoreAttack, Metric.SED),
        (CosineScoreAttack, Metric.COSINE),
    ])
    def test_probe_draw_takes_two_dim_normals(self, attack, metric):
        d = 32
        rng = make_rng(5)
        attack(dim=d).reconstruct(score_oracle(random_unit_vector(make_rng(6), d), metric=metric), "t", seed=rng)
        after = make_rng(5)
        random_unit_vectors(after, d, 2)
        assert np.array_equal(rng.standard_normal(3), after.standard_normal(3))


class TestHillClimbAttack:
    def test_budget_zero_returns_first_probe(self, model):
        truth = enrollment_template(model, 8)
        oracle = score_oracle(truth.values)
        result = HillClimbAttack(dim=128, budget=0).reconstruct(oracle, "t", seed=2)
        assert result.queries_used == 1
        assert np.linalg.norm(result.recovered.values) == pytest.approx(1.0, abs=1e-12)

    def test_total_queries_is_budget_plus_start(self, model):
        truth = enrollment_template(model, 8)
        oracle = score_oracle(truth.values)
        result = HillClimbAttack(dim=128, budget=250).reconstruct(oracle, "t", seed=2)
        assert result.queries_used == 251

    def test_sed_descent_improves_and_trace_is_monotone(self, model):
        truth = enrollment_template(model, 9)
        oracle = score_oracle(truth.values)
        attack = HillClimbAttack(dim=128, budget=800, record_trace=True)
        result = attack.reconstruct(oracle, "t", seed=5)
        trace = result.params["trace"]
        scores = [s for _, s in trace]
        assert all(b < a for a, b in zip(scores, scores[1:]))
        assert scores[-1] < scores[0]
        assert result.params["final_score"] == scores[-1]

    def test_cosine_ascent(self, model):
        truth = enrollment_template(model, 10)
        oracle = score_oracle(truth.values, metric=Metric.COSINE)
        attack = HillClimbAttack(dim=128, budget=800, record_trace=True)
        result = attack.reconstruct(oracle, "t", seed=5)
        scores = [s for _, s in result.params["trace"]]
        assert all(b > a for a, b in zip(scores, scores[1:]))
        assert result.recovered.unit

    def test_rejects_binary_oracle(self, model):
        truth = enrollment_template(model, 0)
        oracle = MatchingOracle(
            OracleConfig(Metric.SED, OracleMode.BINARY, threshold=Threshold(1.0, Metric.SED))
        )
        oracle.enroll("t", truth.values)
        with pytest.raises(OracleModeError):
            HillClimbAttack(dim=128).reconstruct(oracle, "t", seed=1)

    @staticmethod
    def reference(oracle, attack, seed):
        """``hill`` drawing one move per step."""
        rng = make_rng(seed)
        cosine = oracle.metric is Metric.COSINE
        current = random_unit_vector(rng, attack.dim)
        best = oracle.authenticate_score("t", current)
        trace = [(1, best)]
        for i in range(attack.budget):
            candidate = current + attack.step_size * random_unit_vector(rng, attack.dim)
            if cosine:
                candidate = candidate / np.linalg.norm(candidate)
            score = oracle.authenticate_score("t", candidate)
            if (score > best) if cosine else (score < best):
                current, best = candidate, score
                trace.append((i + 2, best))
        return current, trace

    @pytest.mark.parametrize("metric", [Metric.SED, Metric.COSINE])
    @pytest.mark.parametrize("budget", [0, 1, 1100])  # 1100 moves at d=128: two 512-row blocks and a part
    def test_block_drawn_moves_equal_per_step_draws(self, model, metric, budget):
        truth = enrollment_template(model, 11).values
        attack = HillClimbAttack(dim=128, budget=budget, record_trace=True)
        result = attack.reconstruct(score_oracle(truth, metric=metric), "t", seed=7)
        current, trace = self.reference(score_oracle(truth, metric=metric), attack, 7)
        assert np.array_equal(result.recovered.values, current)
        assert result.params["trace"] == trace
        assert result.params["final_score"] == trace[-1][1]
        assert result.params["improvements"] == len(trace) - 1
        assert result.queries_used == budget + 1


class TestFactory:
    def test_known_names(self):
        attack = make_attack("score-sed", dim=16)
        assert attack.name == "score-sed"
        assert attack.dim == 16

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown attack"):
            make_attack("score-foo", dim=16)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_attack("score-sed", dim=16, precision=9)

    def test_params_recorded_in_result(self, model):
        truth = enrollment_template(model, 0)
        oracle = score_oracle(truth.values)
        result = make_attack("score-sed", dim=128).reconstruct(oracle, "t", seed=1)
        assert result.attack_name == "score-sed"
        assert result.params["dim"] == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            SedScoreAttack(dim=0)
        with pytest.raises(ValueError):
            HillClimbAttack(dim=4, step_size=0.0)
        with pytest.raises((TypeError, ValueError)):
            HillClimbAttack(dim=4, budget=-1)
