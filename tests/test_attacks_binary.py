import math

import numpy as np
import pytest

import matchbreak.attacks as attacks_module
from matchbreak.attacks import (
    AcceptAverageAttack,
    BoundarySearchAttack,
    boundary_point,
    find_seed_match,
)
from matchbreak.errors import (
    LockedOutError,
    NoFalseMatchError,
    OracleModeError,
    OutsidePointError,
    SingularSystemError,
)
from matchbreak.matcher import (
    MatchingOracle,
    Metric,
    OracleConfig,
    OracleMode,
    Threshold,
    sed_score,
)
from matchbreak.rng import make_rng, random_unit_vector
from matchbreak.templates import Template
from matchbreak.synth import enrollment_template, gen_breaking_set, gen_identity_model, impostor_scores
from matchbreak.matcher import calibrate_threshold


def binary_oracle(truth_values, threshold_value, metric=Metric.SED):
    oracle = MatchingOracle(
        OracleConfig(metric=metric, mode=OracleMode.BINARY,
                     threshold=Threshold(threshold_value, metric))
    )
    oracle.enroll("t", truth_values)
    return oracle


@pytest.fixture(scope="module")
def setup16():
    """Small population with a threshold calibrated to a 5% false-match rate."""
    model = gen_identity_model(16, 30, within_noise_sigma=0.1, seed=4)
    scores = impostor_scores(model, Metric.SED, 50000, seed=0)
    threshold = calibrate_threshold(scores, 0.05, Metric.SED).threshold
    return model, threshold


class TestAcceptAverage:
    def test_average_of_accepted_members(self, setup16):
        model, threshold = setup16
        truth = enrollment_template(model, 0)
        bs = gen_breaking_set(model, 0, 400, seed=7)
        oracle = binary_oracle(truth.values, threshold.value)
        result = AcceptAverageAttack().reconstruct(oracle, "t", seed=0, breaking_set=bs)

        # second, direct route: recompute the accepted subset by hand
        accepted = [row for row in bs.values if sed_score(row, truth.values) <= threshold.value]
        assert len(accepted) == len(result.params["accepted_indices"])
        assert np.allclose(result.recovered.values, np.mean(accepted, axis=0), atol=1e-15)
        assert result.queries_used == 400

    def test_single_accept_returns_that_member(self, setup16):
        model, threshold = setup16
        truth = enrollment_template(model, 1)
        bs = gen_breaking_set(model, 1, 400, seed=8)
        accepted = [i for i, row in enumerate(bs.values)
                    if sed_score(row, truth.values) <= threshold.value]
        budget = accepted[0] + 1  # stop right after the first acceptance
        oracle = binary_oracle(truth.values, threshold.value)
        result = AcceptAverageAttack(budget=budget).reconstruct(oracle, "t", seed=0, breaking_set=bs)
        assert result.params["accepted_indices"] == [accepted[0]]
        assert np.array_equal(result.recovered.values, bs.values[accepted[0]])
        assert result.queries_used == budget

    def test_budget_probes_the_first_rows(self, setup16, monkeypatch):
        model, threshold = setup16
        truth = enrollment_template(model, 1)
        bs = gen_breaking_set(model, 1, 400, seed=8)
        oracle = binary_oracle(truth.values, threshold.value)
        sent = []
        answer = oracle.authenticate_binary_many

        def recording(claim, probes):
            sent.append(np.array(probes))
            return answer(claim, probes)

        monkeypatch.setattr(oracle, "authenticate_binary_many", recording)
        result = AcceptAverageAttack(budget=150).reconstruct(oracle, "t", seed=0, breaking_set=bs)
        assert len(sent) == 1 and np.array_equal(sent[0], bs.values[:150])
        assert result.queries_used == oracle.queries == 150

    def test_no_false_match(self, setup16):
        model, _ = setup16
        truth = enrollment_template(model, 2)
        bs = gen_breaking_set(model, 2, 50, seed=9)
        oracle = binary_oracle(truth.values, 1e-6)  # nothing passes
        with pytest.raises(NoFalseMatchError) as info:
            AcceptAverageAttack().reconstruct(oracle, "t", seed=0, breaking_set=bs)
        assert info.value.attempts == 50
        assert oracle.queries == 50

    def test_breaking_set_required(self, setup16):
        model, threshold = setup16
        oracle = binary_oracle(enrollment_template(model, 0).values, threshold.value)
        with pytest.raises(ValueError, match="breaking set"):
            AcceptAverageAttack().reconstruct(oracle, "t", seed=0)


class TestFindSeedMatch:
    def test_returns_first_accepted_member(self, setup16):
        model, threshold = setup16
        truth = enrollment_template(model, 3)
        bs = gen_breaking_set(model, 3, 400, seed=10)
        expected = next(
            i for i, row in enumerate(bs.values)
            if sed_score(row, truth.values) <= threshold.value
        )
        oracle = binary_oracle(truth.values, threshold.value)
        member, attempts = find_seed_match(oracle, "t", bs)
        assert attempts == expected + 1
        assert np.array_equal(member.values, bs.values[expected])
        assert oracle.queries == attempts

    def test_returns_a_template_of_the_row_with_the_set_unit_flag(self, setup16):
        model, _ = setup16
        truth = enrollment_template(model, 3)
        for unit_norm in (True, False):
            bs = gen_breaking_set(model, 3, 400, unit_norm=unit_norm, seed=10)
            oracle = binary_oracle(truth.values, 1e6)  # the first row is accepted
            member, attempts = find_seed_match(oracle, "t", bs)
            assert attempts == 1
            assert isinstance(member, Template)
            assert member == Template(bs.values[0], unit=unit_norm)

    def test_budget_exhaustion(self, setup16):
        model, _ = setup16
        truth = enrollment_template(model, 4)
        bs = gen_breaking_set(model, 4, 100, seed=11)
        oracle = binary_oracle(truth.values, 1e-6)
        with pytest.raises(NoFalseMatchError) as info:
            find_seed_match(oracle, "t", bs, max_attempts=25)
        assert info.value.attempts == 25
        assert oracle.queries == 25

    def test_expected_attempts_near_inverse_fmr(self):
        """At a 1% false-match rate, finding a seed takes about 100 probes."""
        model = gen_identity_model(128, 300, within_noise_sigma=0.1, seed=7)
        scores = impostor_scores(model, Metric.SED, 100000, seed=0)
        threshold = calibrate_threshold(scores, 0.01, Metric.SED).threshold
        attempts = []
        for target in range(150):
            truth = enrollment_template(model, target)
            oracle = binary_oracle(truth.values, threshold.value)
            bs = gen_breaking_set(model, target, 2500, seed=make_rng(3, "bs", target))
            _, n = find_seed_match(oracle, "t", bs)
            attempts.append(n)
        mean = float(np.mean(attempts))
        assert 70.0 <= mean <= 140.0


class TestBoundaryPoint:
    def test_output_lies_on_the_boundary(self):
        """Starting at the exact center makes the ray purely radial; the
        worst case is then T/2^(P-1) + T/4^P, with the last term realized
        when the crossing sits at the final bracket's edge."""
        rng = make_rng(12)
        threshold = 0.25
        truth = random_unit_vector(make_rng(1), 8)
        oracle = binary_oracle(truth, threshold)
        for precision in (5, 12):
            tolerance = (threshold / 2 ** (precision - 1) + threshold / 4 ** precision) * (1 + 1e-12)
            for _ in range(200):
                pt = boundary_point(oracle, "t", truth, math.sqrt(threshold), precision, rng)
                assert abs(sed_score(pt, truth) - threshold) <= tolerance

    def test_each_round_costs_exactly_precision_queries(self):
        rng = make_rng(13)
        truth = random_unit_vector(make_rng(2), 8)
        oracle = binary_oracle(truth, 0.25)
        before = oracle.queries
        boundary_point(oracle, "t", truth, 0.5, 10, rng)
        assert oracle.queries - before == 10

    def test_precision_one_is_coarse_but_valid(self):
        rng = make_rng(14)
        truth = random_unit_vector(make_rng(3), 8)
        threshold = 0.25
        oracle = binary_oracle(truth, threshold)
        pt = boundary_point(oracle, "t", truth, math.sqrt(threshold), 1, rng)
        assert abs(sed_score(pt, truth) - threshold) <= threshold

    def test_small_radius_estimate_recovers_by_doubling(self):
        """An underestimated radius keeps the outside probe inside; every
        direction fails, the estimate is doubled once, and the search
        succeeds. The failed rounds still cost their bisection queries."""
        rng = make_rng(15)
        truth = random_unit_vector(make_rng(4), 8)
        threshold = 0.25  # boundary at distance 0.5 from the center
        oracle = binary_oracle(truth, threshold)
        precision = 6
        radius_estimate = 0.4 * 0.5  # probes land at 0.4 of the true radius
        pt = boundary_point(oracle, "t", truth, radius_estimate, precision, rng)
        assert oracle.queries == 10 * precision  # 9 failed rounds + 1 good one
        assert abs(sed_score(pt, truth) - threshold) <= threshold / 2 ** (precision - 1)

    def test_hopeless_radius_estimate_fails(self):
        rng = make_rng(16)
        truth = random_unit_vector(make_rng(5), 8)
        oracle = binary_oracle(truth, 0.25)
        with pytest.raises(OutsidePointError, match="radius estimate"):
            boundary_point(oracle, "t", truth, 0.05 * 0.5, 4, rng)
        assert oracle.queries == 18 * 4  # two radii, nine rounds each

    def test_requires_binary_oracle(self):
        oracle = MatchingOracle(OracleConfig(Metric.SED, OracleMode.SCORE))
        oracle.enroll("t", [1.0, 0.0])
        with pytest.raises(OracleModeError):
            boundary_point(oracle, "t", [1.0, 0.0], 1.0, 4, make_rng(0))


class TestBoundarySearchAttack:
    def test_reconstruction_and_exact_accounting(self, setup16):
        model, threshold = setup16
        truth = enrollment_template(model, 5)
        bs = gen_breaking_set(model, 5, 400, seed=12)
        oracle = binary_oracle(truth.values, threshold.value)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=20)
        result = attack.reconstruct(oracle, "t", seed=6, breaking_set=bs)
        loss = sed_score(result.recovered.values, truth.values)
        assert loss < 1e-6
        assert result.params["boundary_redraws"] == 0
        assert result.params["solve_resamples"] == 0
        assert result.queries_used == result.params["seed_attempts"] + 20 * 17
        assert oracle.queries == result.queries_used

    def test_deterministic(self, setup16):
        model, threshold = setup16
        truth = enrollment_template(model, 6)
        bs = gen_breaking_set(model, 6, 400, seed=13)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=12)
        a = attack.reconstruct(binary_oracle(truth.values, threshold.value), "t", seed=3, breaking_set=bs)
        b = attack.reconstruct(binary_oracle(truth.values, threshold.value), "t", seed=3, breaking_set=bs)
        assert np.array_equal(a.recovered.values, b.recovered.values)
        assert a.queries_used == b.queries_used

    def test_threshold_overestimate_still_works(self, setup16):
        """The threshold guess only sets the bracket length; the solve
        eliminates it. A 2x overestimate changes the loss scale, not the
        outcome."""
        model, threshold = setup16
        truth = enrollment_template(model, 7)
        bs = gen_breaking_set(model, 7, 400, seed=14)
        losses = {}
        for factor in (1.0, 2.0):
            attack = BoundarySearchAttack(
                dim=16, threshold_estimate=factor * threshold.value, precision=20
            )
            result = attack.reconstruct(
                binary_oracle(truth.values, threshold.value), "t", seed=8, breaking_set=bs
            )
            losses[factor] = sed_score(result.recovered.values, truth.values)
        assert losses[1.0] < 1e-6
        assert losses[2.0] < 1e-6

    def test_requires_sed_metric(self, setup16):
        model, _ = setup16
        truth = enrollment_template(model, 0)
        oracle = MatchingOracle(
            OracleConfig(Metric.COSINE, OracleMode.BINARY, threshold=Threshold(0.5, Metric.COSINE))
        )
        oracle.enroll("t", truth.values)
        bs = gen_breaking_set(model, 0, 10, seed=0)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=1.0)
        with pytest.raises(OracleModeError, match="sed"):
            attack.reconstruct(oracle, "t", seed=0, breaking_set=bs)

    def test_breaking_set_required(self, setup16):
        model, threshold = setup16
        oracle = binary_oracle(enrollment_template(model, 0).values, threshold.value)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value)
        with pytest.raises(ValueError, match="breaking set"):
            attack.reconstruct(oracle, "t", seed=0)

    def test_seed_budget_exhaustion_propagates(self, setup16):
        model, _ = setup16
        truth = enrollment_template(model, 8)
        bs = gen_breaking_set(model, 8, 50, seed=15)
        oracle = binary_oracle(truth.values, 1e-6)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=1.0, max_seed_attempts=20)
        with pytest.raises(NoFalseMatchError):
            attack.reconstruct(oracle, "t", seed=0, breaking_set=bs)

    def test_failures_carry_the_queries_used(self, setup16):
        """A failed run reports the queries it got answered: the seed
        attempts when the seed search gives up, and the served rows of the
        refused batch when a lockout lands inside one."""
        model, threshold = setup16
        truth = enrollment_template(model, 5)
        bs = gen_breaking_set(model, 5, 400, seed=12)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=20,
                                      max_seed_attempts=1)
        with pytest.raises(NoFalseMatchError) as info:
            attack.reconstruct(binary_oracle(truth.values, 1e-6), "t", seed=6, breaking_set=bs)
        assert info.value.queries_used == 1

        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=20)
        seed_attempts = attack.reconstruct(binary_oracle(truth.values, threshold.value), "t",
                                           seed=6, breaking_set=bs).params["seed_attempts"]
        limit = seed_attempts + 3 * 17 + 5
        oracle = MatchingOracle(OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY,
                                             threshold=threshold, query_limit=limit))
        oracle.enroll("t", truth.values)
        with pytest.raises(LockedOutError) as info:
            attack.reconstruct(oracle, "t", seed=6, breaking_set=bs)
        assert info.value.served == 5
        assert info.value.queries_used == oracle.queries == limit

    def test_singular_solve_replaces_a_point(self, setup16, monkeypatch):
        model, threshold = setup16
        truth = enrollment_template(model, 9)
        bs = gen_breaking_set(model, 9, 400, seed=16)
        oracle = binary_oracle(truth.values, threshold.value)
        real = attacks_module.sphere_center
        calls = {"n": 0}

        def flaky(points, sq_distances=None, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SingularSystemError("forced")
            return real(points, sq_distances, **kw)

        monkeypatch.setattr(attacks_module, "sphere_center", flaky)
        precision = 8
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=precision)
        result = attack.reconstruct(oracle, "t", seed=2, breaking_set=bs)
        assert result.params["solve_resamples"] == 1
        expected = result.params["seed_attempts"] + precision * (17 + 1)
        assert result.queries_used == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundarySearchAttack(dim=16, threshold_estimate=0.0)
        with pytest.raises(ValueError):
            BoundarySearchAttack(dim=16, threshold_estimate=1.0, precision=0)


class TestLockstep:
    """The lockstep bisection against a per-point reference loop."""

    @pytest.fixture(scope="class")
    def setup24(self):
        model = gen_identity_model(24, 40, within_noise_sigma=0.1, seed=21)
        scores = impostor_scores(model, Metric.SED, 20000, seed=1)
        return model, calibrate_threshold(scores, 0.05, Metric.SED).threshold

    @staticmethod
    def reference(oracle, claim, attack, seed, breaking_set):
        """``binary-ours`` one boundary point at a time."""
        rng = make_rng(seed)
        member, _ = find_seed_match(oracle, claim, breaking_set)
        radius = math.sqrt(attack.threshold_estimate)
        points = np.stack([boundary_point(oracle, claim, member.values, radius, attack.precision, rng)
                           for _ in range(attack.dim + 1)])
        return points, attacks_module.sphere_center(points)

    def test_equals_per_point_loop_without_redraws(self, setup24, monkeypatch):
        model, threshold = setup24
        attack = BoundarySearchAttack(dim=24, threshold_estimate=threshold.value, precision=16)
        real = attacks_module.sphere_center
        solved = []

        def keeping(points, *args, **kwargs):
            solved.append(np.array(points, copy=True))
            return real(points, *args, **kwargs)

        for target in range(6):
            truth = enrollment_template(model, target).values
            bs = gen_breaking_set(model, target, 600, seed=make_rng(3, target))
            lockstep_oracle = binary_oracle(truth, threshold.value)
            monkeypatch.setattr(attacks_module, "sphere_center", keeping)
            result = attack.reconstruct(lockstep_oracle, "t", seed=target, breaking_set=bs)
            monkeypatch.setattr(attacks_module, "sphere_center", real)
            assert result.params["boundary_redraws"] == 0
            loop_oracle = binary_oracle(truth, threshold.value)
            points, center = self.reference(loop_oracle, "t", attack, target, bs)
            assert np.array_equal(solved[-1], points)
            assert np.array_equal(result.recovered.values, center)
            assert result.queries_used == loop_oracle.queries == lockstep_oracle.queries

    def test_redraws_and_doubling_per_ray(self):
        """Every ray fails at the underestimated radius and succeeds once it
        doubles; each round costs ``precision`` queries."""
        truth = random_unit_vector(make_rng(4), 8)
        threshold = 0.25
        oracle = binary_oracle(truth, threshold)
        precision = 6
        points, rounds = attacks_module.boundary_points(
            oracle, "t", truth, 0.4 * 0.5, precision, make_rng(15), 5)
        assert rounds == 5 * 9 + 5
        assert oracle.queries == rounds * precision
        assert all(abs(sed_score(p, truth) - threshold) <= threshold / 2 ** (precision - 1) for p in points)

    def test_queries_are_counted_on_the_client(self, setup24):
        """The attack never reads the oracle's ledger, so the count needs no
        round trip and holds only the attack's own queries."""

        class NoLedger(MatchingOracle):
            @property
            def queries(self):
                raise AssertionError("the attack read the ledger")

        model, threshold = setup24
        truth = enrollment_template(model, 1).values
        oracle = NoLedger(OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY,
                                       threshold=Threshold(threshold.value, Metric.SED)))
        oracle.enroll("t", truth)
        bs = gen_breaking_set(model, 1, 600, seed=5)
        result = BoundarySearchAttack(24, threshold.value, precision=10).reconstruct(oracle, "t", seed=1, breaking_set=bs)
        x = result.params
        assert result.queries_used == oracle.queries_for("t")
        assert result.queries_used == x["seed_attempts"] + 10 * (25 + x["boundary_redraws"] + x["solve_resamples"])
