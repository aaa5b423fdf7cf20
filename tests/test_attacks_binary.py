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
from matchbreak.rng import make_rng, random_unit_vector, random_unit_vectors, simplex_directions
from matchbreak.synth import (
    _BLOCK_ELEMENTS,
    enrollment_template,
    gen_breaking_set,
    gen_identity_model,
    impostor_scores,
)
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
        assert info.value.queries_used == oracle.queries == 50

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
        assert np.array_equal(member, bs.values[expected])
        assert oracle.queries == attempts

    def test_returns_the_row_read_only_for_either_unit_flag(self, setup16):
        model, _ = setup16
        truth = enrollment_template(model, 3)
        for unit_norm in (True, False):
            bs = gen_breaking_set(model, 3, 400, unit_norm=unit_norm, seed=10)
            oracle = binary_oracle(truth.values, 1e6)  # the first row is accepted
            member, attempts = find_seed_match(oracle, "t", bs)
            assert attempts == 1
            assert isinstance(member, np.ndarray) and member.dtype == np.float64
            assert np.array_equal(member, bs.values[0])
            assert not member.flags.writeable

    def test_budget_exhaustion(self, setup16):
        model, _ = setup16
        truth = enrollment_template(model, 4)
        bs = gen_breaking_set(model, 4, 25, seed=11)
        oracle = binary_oracle(truth.values, 1e-6)
        with pytest.raises(NoFalseMatchError, match="in 25 attempts"):
            find_seed_match(oracle, "t", bs)
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
        bs = gen_breaking_set(model, 8, 20, seed=15)
        oracle = binary_oracle(truth.values, 1e-6)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=1.0)
        with pytest.raises(NoFalseMatchError):
            attack.reconstruct(oracle, "t", seed=0, breaking_set=bs)

    def test_a_set_without_an_accepted_row_costs_its_length(self, setup16):
        """The breaking set is the seed search's budget: on a k-row set that
        holds no accepted row, the attack fails after exactly k queries."""
        model, threshold = setup16
        truth = enrollment_template(model, 6)
        full = gen_breaking_set(model, 6, 400, seed=13)
        oracle = binary_oracle(truth.values, threshold.value)
        accepted = np.flatnonzero(oracle.authenticate_binary_many("t", full.values))
        assert 1 < accepted[0]
        k = int(accepted[0])
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value)
        oracle = binary_oracle(truth.values, threshold.value)
        with pytest.raises(NoFalseMatchError, match=f"in {k} attempts") as info:
            attack.reconstruct(oracle, "t", seed=0, breaking_set=gen_breaking_set(model, 6, k, seed=13))
        assert info.value.queries_used == oracle.queries == k

    def test_failures_carry_the_queries_used(self, setup16):
        """A failed run reports the queries it got answered: the seed
        attempts when the seed search gives up, and the served rows of the
        refused batch when a lockout lands inside one."""
        model, threshold = setup16
        truth = enrollment_template(model, 5)
        bs = gen_breaking_set(model, 5, 400, seed=12)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=20)
        with pytest.raises(NoFalseMatchError) as info:
            attack.reconstruct(binary_oracle(truth.values, 1e-6), "t", seed=6,
                               breaking_set=gen_breaking_set(model, 5, 1, seed=12))
        assert info.value.queries_used == 1

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
        calls = []

        def flaky(points, sq_distances=None, **kw):
            calls.append(kw["rays"])
            if len(calls) == 1:
                raise SingularSystemError("forced")
            return real(points, sq_distances, **kw)

        monkeypatch.setattr(attacks_module, "sphere_center", flaky)
        precision = 8
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=precision)
        result = attack.reconstruct(oracle, "t", seed=2, breaking_set=bs)
        assert result.params["solve_resamples"] == 1
        expected = result.params["seed_attempts"] + precision * (17 + 1)
        assert result.queries_used == expected
        # the simplex rays go to the closed form; with a random replacement point, to LU
        assert calls[0] is not None and calls[1] is None

    def test_simplex_rays_solve_in_closed_form_until_one_is_redrawn(self, setup16, monkeypatch):
        """Under the default design the d + 1 points lie on the rays of a
        regular simplex from the seed, and the solve gets those rays. A
        radius estimate of half the true radius leaves some first rays
        inside; they are redrawn at random, and the points' system goes to
        LU. The query count is the same formula either way."""
        model, threshold = setup16
        truth = enrollment_template(model, 3)
        bs = gen_breaking_set(model, 3, 400, seed=18)
        real = attacks_module.sphere_center
        calls = []

        def keeping(points, *args, **kwargs):
            calls.append((np.array(points, copy=True), kwargs["rays"]))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(attacks_module, "sphere_center", keeping)
        for estimate in (threshold.value, threshold.value / 4):
            attack = BoundarySearchAttack(dim=16, threshold_estimate=estimate, precision=12)
            result = attack.reconstruct(binary_oracle(truth.values, threshold.value), "t", seed=4, breaking_set=bs)
            x = result.params
            assert result.queries_used == x["seed_attempts"] + 12 * (17 + x["boundary_redraws"] + x["solve_resamples"])
            points, rays = calls[-1]
            if estimate == threshold.value:
                assert x["boundary_redraws"] == 0
                start, t, u = rays
                assert np.array_equal(points, t[:, None] * u + start)
                assert np.allclose(u.sum(axis=0), 0.0, atol=1e-14)
                assert np.allclose(u.T @ u, 17 / 16 * np.eye(16), rtol=0, atol=1e-14)
                assert np.allclose(result.recovered.values, real(points), rtol=0, atol=1e-12)  # the LU solve
            else:
                assert x["boundary_redraws"] > 0 and rays is None
                assert sed_score(result.recovered.values, truth.values) < threshold.value

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundarySearchAttack(dim=16, threshold_estimate=0.0)
        with pytest.raises(ValueError):
            BoundarySearchAttack(dim=16, threshold_estimate=1.0, precision=0)
        with pytest.raises(ValueError, match="directions"):
            BoundarySearchAttack(dim=16, threshold_estimate=1.0, directions="orthogonal")


class TestLockstep:
    """The batched bisection against per-point and lockstep reference loops."""

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
        points = np.stack([boundary_point(oracle, claim, member, radius, attack.precision, rng)
                           for _ in range(attack.dim + 1)])
        return points, attacks_module.sphere_center(points)

    def test_equals_per_point_loop_without_redraws(self, setup24, monkeypatch):
        model, threshold = setup24
        attack = BoundarySearchAttack(dim=24, threshold_estimate=threshold.value, precision=16, directions="random")
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
        points, _, rounds = attacks_module.boundary_points(
            oracle, "t", truth, 0.4 * 0.5, precision, make_rng(15), 5)
        assert rounds == 5 * 9 + 5
        assert oracle.queries == rounds * precision
        assert all(abs(sed_score(p, truth) - threshold) <= threshold / 2 ** (precision - 1) for p in points)

    def test_points_lie_on_their_own_rays(self):
        """Each point is ``start + t * u`` on the direction drawn for its
        ray, with ``0 < t <= 2 * radius``."""
        truth = random_unit_vector(make_rng(6), 16)
        threshold = 0.25
        radius = math.sqrt(threshold)
        start = truth + 0.2 * random_unit_vector(make_rng(7), 16)  # accepted, off center: every ray leaves
        oracle = binary_oracle(truth, threshold)
        points, _, rounds = attacks_module.boundary_points(oracle, "t", start, radius, 20, make_rng(8), 40)
        assert rounds == 40
        directions = random_unit_vectors(make_rng(8), 16, 40)
        t = np.vecdot(points - start, directions)
        assert np.all((t > 0) & (t <= 2 * radius))
        assert np.allclose(points, start + t[:, None] * directions, rtol=0, atol=1e-14)

    def test_given_directions_replace_the_first_draw_only(self):
        """Rays along given directions take no draw from the stream; a ray
        that never leaves is redrawn at random, as without them."""
        truth = random_unit_vector(make_rng(6), 16)
        threshold = 0.25
        start = truth + 0.2 * random_unit_vector(make_rng(7), 16)
        given = simplex_directions(make_rng(9), 16)
        rng = make_rng(8)
        points, t, rounds = attacks_module.boundary_points(
            binary_oracle(truth, threshold), "t", start, math.sqrt(threshold), 20, rng, 17, directions=given)
        assert rounds == 17
        assert np.array_equal(points, t[:, None] * given + start)
        assert np.array_equal(rng.standard_normal(4), make_rng(8).standard_normal(4))

        # From the centre of the radius-0.5 sphere a bracket of 2 * 0.2 stays
        # inside: the given rays and eight random redraws fail, and the rays
        # drawn next leave at the doubled radius.
        points, t, rounds = attacks_module.boundary_points(
            binary_oracle(truth, threshold), "t", truth, 0.2, 6, make_rng(8), 17, directions=given)
        assert rounds == 17 * 10
        rng = make_rng(8)
        draws = [random_unit_vectors(rng, 16, 17) for _ in range(9)]
        assert np.array_equal(points, t[:, None] * draws[-1] + truth)
        with pytest.raises(ValueError, match="shape"):
            attacks_module.boundary_points(binary_oracle(truth, threshold), "t", start, 0.5, 6, make_rng(8), 16,
                                           directions=given)

    def test_an_oracle_may_keep_the_batches_it_answered(self):
        """Every halving sends a new array, so a batch the oracle keeps
        still holds the probes it answered once the bisection is done."""

        class Recording(MatchingOracle):
            kept = []

            def authenticate_binary_many(self, claim, probes):
                self.kept.append((probes, np.array(probes, copy=True)))
                return super().authenticate_binary_many(claim, probes)

        truth = random_unit_vector(make_rng(4), 8)
        oracle = Recording(OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY,
                                        threshold=Threshold(0.25, Metric.SED)))
        oracle.enroll("t", truth)
        # five rays fail nine passes, then all leave at the doubled radius: ten passes of six halvings
        attacks_module.boundary_points(oracle, "t", truth, 0.4 * 0.5, 6, make_rng(15), 5)
        assert len(oracle.kept) == 10 * 6
        for kept, answered in oracle.kept:
            assert np.array_equal(kept, answered)

    @staticmethod
    def lockstep(oracle, claim, start, radius_estimate, precision, rng, count):
        """``boundary_points`` with every pending ray of a pass in one batch
        per halving, as it bisected before it went block by block."""
        center = np.asarray(start, dtype=np.float64)
        points = np.empty((count, center.size))
        pending = np.arange(count)
        rounds = 0
        for radius in (radius_estimate, 2.0 * radius_estimate):
            for _ in range(attacks_module._DIRECTION_REDRAWS + 1):
                directions = random_unit_vectors(rng, center.size, len(pending))
                t_in = np.zeros(len(pending))
                t_out = np.full(len(pending), 2.0 * radius)
                left_region = np.zeros(len(pending), dtype=bool)
                for _ in range(precision):
                    t = 0.5 * (t_in + t_out)
                    probes = t[:, None] * directions
                    probes += center
                    accepted = oracle.authenticate_binary_many(claim, probes)
                    np.copyto(t_in, t, where=accepted)
                    np.copyto(t_out, t, where=~accepted)
                    left_region |= ~accepted
                rounds += len(pending)
                t = 0.5 * (t_in + t_out)
                points[pending[left_region]] = t[left_region, None] * directions[left_region] + center
                pending = pending[~left_region]
                if not pending.size:
                    return points, rounds
        raise OutsidePointError("no probe direction left the acceptance region")

    def test_blocks_equal_the_lockstep_loop_with_redraws(self, monkeypatch):
        """At d=256 a pass of 257 rays spans two blocks. From a start 0.3
        off the centre of a radius-0.5 sphere the boundary lies about 0.4
        out, so a first bracket of 2 * 0.2 misses it for about half the rays
        and they are redrawn. Points, rounds and queries equal the lockstep
        loop's bit for bit; every batch fits a block, and the blocks of a
        pass differ in size by at most one row."""
        d, count, precision = 256, 257, 20
        truth = random_unit_vector(make_rng(30), d)
        start = truth + 0.3 * random_unit_vector(make_rng(31), d)
        block = max(1, _BLOCK_ELEMENTS // d)
        log = []

        class Recording(MatchingOracle):
            def authenticate_binary_many(self, claim, probes):
                log.append(("batch", len(probes)))
                return super().authenticate_binary_many(claim, probes)

        def drawing(rng, dim, n):
            log.append(("draw", n))
            return random_unit_vectors(rng, dim, n)

        oracle = Recording(OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY,
                                        threshold=Threshold(0.25, Metric.SED)))
        oracle.enroll("t", truth)
        monkeypatch.setattr(attacks_module, "random_unit_vectors", drawing)
        points, _, rounds = attacks_module.boundary_points(oracle, "t", start, 0.2, precision, make_rng(32), count)
        monkeypatch.undo()
        reference = binary_oracle(truth, 0.25)
        expected, expected_rounds = self.lockstep(reference, "t", start, 0.2, precision, make_rng(32), count)
        assert np.array_equal(points, expected)
        assert rounds == expected_rounds > count  # rays were redrawn
        assert oracle.queries == reference.queries == rounds * precision

        passes = []
        for kind, n in log:
            if kind == "draw":
                passes.append((n, []))
            else:
                passes[-1][1].append(n)
        assert len(passes) > 1 and passes[0][0] == count
        for n, batches in passes:
            sizes = batches[::precision]
            assert batches == [size for size in sizes for _ in range(precision)]
            assert sum(sizes) == n and len(sizes) == -(-n // block)
            assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
        assert sorted(passes[0][1][::precision]) == [128, 129]

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
