import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbreak.errors import (
    DegenerateTemplateError,
    DimensionMismatchError,
    LockedOutError,
    OracleModeError,
    UnknownIdentityError,
)
from matchbreak import matcher
from matchbreak.matcher import (
    MatchingOracle,
    Metric,
    OracleConfig,
    OracleMode,
    Threshold,
    calibrate_threshold,
    cosine_score,
    score,
    sed_score,
)


def brute_sed(a, b):
    return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))


def brute_cos(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (na * nb)


class TestScores:
    def test_sed_known_value(self):
        assert sed_score([1.0, 2.0], [4.0, 6.0]) == 25.0

    def test_sed_identical(self):
        v = np.arange(5.0)
        assert sed_score(v, v) == 0.0

    def test_sed_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        assert sed_score(a, b) == sed_score(b, a)

    def test_sed_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a, b = rng.standard_normal(32), rng.standard_normal(32)
            assert sed_score(a, b) == pytest.approx(brute_sed(a, b), rel=1e-12)

    def test_sed_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sed_score([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_cosine_orthogonal(self):
        assert cosine_score([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_cosine_identical_direction(self):
        assert cosine_score([2.0, 0.0], [7.0, 0.0]) == 1.0

    def test_cosine_opposite(self):
        assert cosine_score([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0)

    def test_cosine_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a, b = rng.standard_normal(16), rng.standard_normal(16)
            assert cosine_score(a, b) == pytest.approx(brute_cos(a, b), rel=1e-12)

    def test_cosine_zero_vector(self):
        with pytest.raises(DegenerateTemplateError):
            cosine_score([0.0, 0.0], [1.0, 0.0])


class TestThreshold:
    def test_sed_accepts_at_or_below(self):
        t = Threshold(1.5, Metric.SED)
        assert t.accepts(1.0)
        assert t.accepts(1.5)  # equality accepts
        assert not t.accepts(1.5000001)

    def test_cosine_accepts_at_or_above(self):
        t = Threshold(0.4, Metric.COSINE)
        assert t.accepts(0.9)
        assert t.accepts(0.4)
        assert not t.accepts(0.3999999)

    def test_sed_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            Threshold(0.0, Metric.SED)

    def test_cosine_threshold_range(self):
        with pytest.raises(ValueError):
            Threshold(1.0, Metric.COSINE)
        with pytest.raises(ValueError):
            Threshold(-1.0, Metric.COSINE)

    @pytest.mark.parametrize("value", ["1.5", True, None])
    def test_value_must_be_a_number(self, value):
        """``float()`` would take ``"1.5"`` and ``True``; a threshold does not."""
        with pytest.raises(TypeError, match="threshold must be a number"):
            Threshold(value, Metric.SED)


class TestCalibration:
    def count_accepts(self, scores, threshold):
        return sum(1 for s in scores if threshold.accepts(s))

    def test_exact_quantile_sed(self):
        scores = [float(i) for i in range(1, 101)]
        result = calibrate_threshold(scores, 0.01, Metric.SED)
        assert result.threshold.value == 1.0
        assert result.achieved_fmr == 0.01
        assert self.count_accepts(scores, result.threshold) == 1

    def test_exact_quantile_cosine(self):
        scores = np.linspace(-0.9, 0.9, 100)
        result = calibrate_threshold(scores, 0.01, Metric.COSINE)
        assert result.threshold.value == 0.9
        assert self.count_accepts(scores, result.threshold) == 1

    def test_never_exceeds_target_on_sample(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.1, 5.0, size=997)
        for fmr in (0.01, 0.05, 0.2):
            result = calibrate_threshold(scores, fmr, Metric.SED)
            accepted = self.count_accepts(scores, result.threshold)
            assert accepted <= fmr * len(scores)
            assert result.achieved_fmr == accepted / len(scores)

    def test_tied_group_excluded_whole(self):
        """A tie straddling the cut is dropped entirely; equality would
        otherwise accept the whole group and overshoot."""
        scores = [2.0] * 10
        result = calibrate_threshold(scores, 0.3, Metric.SED)
        assert result.achieved_fmr == 0.0
        assert result.threshold.value < 2.0
        assert self.count_accepts(scores, result.threshold) == 0

    def test_partial_tie_at_cut(self):
        scores = [1.0, 1.0, 2.0, 2.0, 2.0, 3.0]
        result = calibrate_threshold(scores, 0.5, Metric.SED)
        # 3 accepts would split the 2.0 group; only the 1.0 group fits
        assert result.threshold.value == 1.0
        assert self.count_accepts(scores, result.threshold) == 2

    def test_metric_required_for_raw_scores(self):
        with pytest.raises(ValueError, match="metric"):
            calibrate_threshold([1.0, 2.0], 0.1, None)

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            calibrate_threshold([], 0.1, Metric.SED)

    def test_sample_must_be_one_finite_vector(self):
        with pytest.raises(ValueError, match="1-D"):
            calibrate_threshold(np.ones((10, 2)), 0.1, Metric.SED)
        with pytest.raises(ValueError, match="non-finite"):
            calibrate_threshold([1.0, float("inf"), 2.0], 0.1, Metric.SED)

    def test_small_sample_warns(self):
        with pytest.warns(UserWarning, match="cannot resolve"):
            calibrate_threshold([1.0, 2.0, 3.0], 0.01, Metric.SED)

    def test_bad_fmr(self):
        for bad in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                calibrate_threshold([1.0, 2.0], bad, Metric.SED)


def make_oracle(metric=Metric.SED, mode=OracleMode.SCORE, threshold=None, **kwargs):
    if mode is OracleMode.BINARY and threshold is None:
        threshold = Threshold(1.0, metric)
    return MatchingOracle(OracleConfig(metric=metric, mode=mode, threshold=threshold, **kwargs))


class TestOracle:
    def test_score_mode_releases_exact_score(self):
        oracle = make_oracle()
        enrolled = np.array([1.0, 2.0, 3.0])
        oracle.enroll("a", enrolled)
        probe = np.array([1.0, 2.0, 4.0])
        assert oracle.authenticate_score("a", probe) == sed_score(enrolled, probe)

    def test_binary_mode_thresholds_the_score(self):
        oracle = make_oracle(mode=OracleMode.BINARY, threshold=Threshold(0.5, Metric.SED))
        oracle.enroll("a", [0.0, 0.0])
        assert oracle.authenticate_binary("a", [0.5, 0.0])
        assert not oracle.authenticate_binary("a", [1.0, 0.0])

    def test_binary_equals_thresholded_score_on_grid(self):
        """Decision oracle and score oracle agree everywhere (noise-free)."""
        threshold = Threshold(0.8, Metric.SED)
        enrolled = np.array([0.3, -0.2])
        score_oracle = make_oracle(mode=OracleMode.SCORE)
        binary_oracle = make_oracle(mode=OracleMode.BINARY, threshold=threshold)
        score_oracle.enroll("a", enrolled)
        binary_oracle.enroll("a", enrolled)
        grid = np.linspace(-1.5, 1.5, 21)
        for x in grid:
            for y in grid:
                probe = [float(x), float(y)]
                released = score_oracle.authenticate_score("a", probe)
                assert binary_oracle.authenticate_binary("a", probe) == threshold.accepts(released)

    def test_decision_flips_at_threshold_distance(self):
        threshold = Threshold(0.49, Metric.SED)
        oracle = make_oracle(mode=OracleMode.BINARY, threshold=threshold)
        oracle.enroll("a", np.zeros(4))
        step = 0.01
        sweep = np.arange(0.0, 1.2, step)
        decisions = []
        for t in sweep:
            probe = np.zeros(4)
            probe[0] = t
            decisions.append(oracle.authenticate_binary("a", probe))
        flip = decisions.index(False)
        boundary = math.sqrt(threshold.value)
        assert sweep[flip - 1] <= boundary < sweep[flip] + step

    def test_mode_guards(self):
        score_oracle = make_oracle(mode=OracleMode.SCORE)
        score_oracle.enroll("a", [1.0, 0.0])
        with pytest.raises(OracleModeError):
            score_oracle.authenticate_binary("a", [1.0, 0.0])
        binary_oracle = make_oracle(mode=OracleMode.BINARY)
        binary_oracle.enroll("a", [1.0, 0.0])
        with pytest.raises(OracleModeError):
            binary_oracle.authenticate_score("a", [1.0, 0.0])

    def test_unknown_identity_not_counted(self):
        oracle = make_oracle()
        oracle.enroll("a", [1.0, 0.0])
        with pytest.raises(UnknownIdentityError):
            oracle.authenticate_score("b", [1.0, 0.0])
        assert oracle.queries == 0

    def test_dim_mismatch_not_counted(self):
        oracle = make_oracle()
        oracle.enroll("a", [1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            oracle.authenticate_score("a", [1.0, 0.0, 0.0])
        assert oracle.queries == 0

    def test_ledger_counts_every_served_query(self):
        oracle = make_oracle(mode=OracleMode.BINARY, threshold=Threshold(0.1, Metric.SED))
        oracle.enroll("a", [0.0, 0.0])
        oracle.enroll("b", [1.0, 1.0])
        for _ in range(3):
            oracle.authenticate_binary("a", [0.0, 0.0])   # accepts
        for _ in range(2):
            oracle.authenticate_binary("b", [0.0, 0.0])   # rejects, still counted
        assert oracle.queries == 5
        assert oracle.queries_for("a") == 3
        assert oracle.queries_for("b") == 2
        total, per_identity = oracle.ledger_snapshot()
        assert total == 5
        assert per_identity == {"a": 3, "b": 2}

    def test_query_limit_locks_out(self):
        oracle = make_oracle(query_limit=3)
        oracle.enroll("a", [1.0, 0.0])
        for _ in range(3):
            oracle.authenticate_score("a", [1.0, 0.0])
        with pytest.raises(LockedOutError, match="locked out"):
            oracle.authenticate_score("a", [1.0, 0.0])
        assert oracle.queries == 3  # the refused query is not served

    def test_query_limit_is_per_identity(self):
        oracle = make_oracle(query_limit=2)
        oracle.enroll("a", [1.0, 0.0])
        oracle.enroll("b", [0.0, 1.0])
        for _ in range(2):
            oracle.authenticate_score("a", [1.0, 0.0])
        assert oracle.authenticate_score("b", [0.0, 1.0]) == 0.0
        with pytest.raises(LockedOutError, match="locked out"):
            oracle.authenticate_score("a", [1.0, 0.0])
        assert oracle.ledger_snapshot() == (3, {"a": 2, "b": 1})

    def test_duplicate_enrollment_rejected(self):
        oracle = make_oracle()
        oracle.enroll("a", [1.0, 0.0])
        with pytest.raises(ValueError, match="already"):
            oracle.enroll("a", [0.0, 1.0])

    def test_noise_moments(self):
        """Score noise is additive Gaussian with the configured sigma."""
        sigma = 0.01
        oracle = MatchingOracle(
            OracleConfig(Metric.SED, OracleMode.SCORE, noise_sigma=sigma), noise_seed=5
        )
        oracle.enroll("a", [1.0, 0.0])
        probe = [0.0, 0.0]  # true score 1.0
        draws = np.array([oracle.authenticate_score("a", probe) for _ in range(20000)])
        assert abs(draws.mean() - 1.0) < 5e-4
        assert 0.0095 < draws.std() < 0.0105

    def test_noise_seed_reproducible(self):
        def run():
            oracle = MatchingOracle(
                OracleConfig(Metric.SED, OracleMode.SCORE, noise_sigma=0.5), noise_seed=9
            )
            oracle.enroll("a", [1.0, 0.0])
            return [oracle.authenticate_score("a", [0.0, 0.0]) for _ in range(5)]

        assert run() == run()

    def test_concurrent_queries_all_counted(self):
        oracle = make_oracle()
        oracle.enroll("a", [1.0, 0.0])

        def worker():
            for _ in range(500):
                oracle.authenticate_score("a", [0.0, 0.0])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert oracle.queries == 2000

    def test_enrolled_template_not_exposed(self):
        oracle = make_oracle()
        oracle.enroll("a", [123.456, 789.0])
        assert oracle.enrolled_identities == ("a",)
        assert "123.456" not in repr(oracle)

    def test_binary_config_requires_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            OracleConfig(Metric.SED, OracleMode.BINARY)

    def test_threshold_metric_must_match(self):
        with pytest.raises(ValueError, match="metric"):
            OracleConfig(Metric.COSINE, OracleMode.BINARY, threshold=Threshold(1.0, Metric.SED))

    @pytest.mark.parametrize("limit, error", [(True, TypeError), (2.0, TypeError), (0, ValueError)])
    def test_query_limit_must_be_a_positive_integer(self, limit, error):
        with pytest.raises(error, match="query_limit"):
            OracleConfig(Metric.SED, OracleMode.SCORE, query_limit=limit)

    def test_query_limit_numpy_integer_becomes_int(self):
        limit = OracleConfig(Metric.SED, OracleMode.SCORE, query_limit=np.int64(3)).query_limit
        assert limit == 3 and type(limit) is int


probe_batches = st.tuples(
    st.sampled_from([Metric.SED, Metric.COSINE]),
    st.sampled_from([0.0, 0.3]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)


class TestBatches:
    @settings(max_examples=60, deadline=None)
    @given(probe_batches)
    def test_many_equals_per_probe_calls_bit_for_bit(self, case):
        """Same answers, same ledger and the same noise stream as one call
        per row, for C- and Fortran-ordered batches."""
        metric, sigma, dim, n, seed, fortran = case
        rng = np.random.default_rng(seed)
        enrolled = rng.standard_normal(dim)
        probes = rng.standard_normal((n, dim))
        if fortran:
            probes = np.asfortranarray(probes)
        batched, single = (make_oracle(metric, noise_sigma=sigma) for _ in range(2))
        for oracle in (batched, single):
            oracle.enroll("a", enrolled)
        many = batched.authenticate_score_many("a", probes)
        one = np.array([single.authenticate_score("a", q) for q in probes])
        assert many.dtype == np.float64 and np.array_equal(many, one)
        assert batched.ledger_snapshot() == single.ledger_snapshot() == (n, {"a": n})
        # the noise streams stay in step after the batch
        assert batched.authenticate_score("a", probes[0]) == single.authenticate_score("a", probes[0])

        cut = float(np.median(one))
        threshold = Threshold(max(cut, 1e-6) if metric is Metric.SED else float(np.clip(cut, -0.999, 0.999)), metric)
        decide_many, decide_one = (make_oracle(metric, OracleMode.BINARY, threshold, noise_sigma=sigma)
                                   for _ in range(2))
        for oracle in (decide_many, decide_one):
            oracle.enroll("a", enrolled)
        matches = decide_many.authenticate_binary_many("a", probes)
        assert matches.dtype == bool
        assert matches.tolist() == [decide_one.authenticate_binary("a", q) for q in probes]

    def test_zero_probe_refuses_the_batch(self):
        oracle = make_oracle(Metric.COSINE)
        oracle.enroll("a", [1.0, 0.0])
        with pytest.raises(DegenerateTemplateError):
            oracle.authenticate_score("a", [0.0, 0.0])
        with pytest.raises(DegenerateTemplateError):
            oracle.authenticate_score_many("a", [[1.0, 1.0], [0.0, 0.0]])
        assert oracle.queries == 0

    def test_invalid_batch_refused_whole(self):
        oracle = make_oracle()
        oracle.enroll("a", [1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            oracle.authenticate_score_many("a", np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            oracle.authenticate_score_many("a", [[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="2-D"):
            oracle.authenticate_score_many("a", [0.0, 0.0])
        with pytest.raises(UnknownIdentityError):
            oracle.authenticate_score_many("b", np.zeros((2, 2)))
        assert oracle.queries == 0
        assert oracle.authenticate_score_many("a", np.zeros((0, 2))).shape == (0,)

    def test_mode_guards(self):
        with pytest.raises(OracleModeError):
            make_oracle().authenticate_binary_many("a", np.zeros((1, 2)))
        with pytest.raises(OracleModeError):
            make_oracle(mode=OracleMode.BINARY).authenticate_score_many("a", np.zeros((1, 2)))

    def test_lockout_serves_the_prefix_that_fits(self):
        """A batch past the limit serves, counts and draws noise for the
        rows that fit, in order, then raises: the ledger and the noise
        stream end where one call per row would have left them."""
        probes = np.random.default_rng(3).standard_normal((6, 4))
        batched, single = (make_oracle(noise_sigma=0.5, query_limit=5) for _ in range(2))
        for oracle in (batched, single):
            oracle.enroll("a", np.ones(4))
            oracle.enroll("b", np.ones(4))
            oracle.authenticate_score("a", probes[0])
            oracle.authenticate_score("a", probes[1])
        with pytest.raises(LockedOutError, match="after 3 of 6 probes"):
            batched.authenticate_score_many("a", probes)
        with pytest.raises(LockedOutError):
            for q in probes:
                single.authenticate_score("a", q)
        assert batched.ledger_snapshot() == single.ledger_snapshot() == (5, {"a": 5})
        assert batched.authenticate_score("b", probes[0]) == single.authenticate_score("b", probes[0])
        with pytest.raises(LockedOutError):
            batched.authenticate_score_many("a", probes[:1])
        assert batched.queries_for("a") == 5

    def test_batch_that_fits_exactly_is_served(self):
        oracle = make_oracle(query_limit=3)
        oracle.enroll("a", [1.0, 0.0])
        assert oracle.authenticate_score_many("a", np.zeros((3, 2))).tolist() == [1.0, 1.0, 1.0]
        assert oracle.queries_for("a") == 3


def both_modes(metric, **kwargs):
    """A score oracle and a decision oracle with the same target enrolled."""
    threshold = Threshold(1.0 if metric is Metric.SED else 0.5, metric)
    oracles = (make_oracle(metric, **kwargs), make_oracle(metric, OracleMode.BINARY, threshold, **kwargs))
    for oracle in oracles:
        oracle.enroll("a", [0.6, -0.8, 0.0])
    return oracles


class TestLateFiniteCheck:
    """Probes are scored before they are checked for finiteness; a refusal
    must still look exactly as if the check had run first."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused_and_not_counted(self, metric, bad):
        for oracle in both_modes(metric, noise_sigma=0.5):
            one = oracle.authenticate_score if oracle.mode is OracleMode.SCORE else oracle.authenticate_binary
            many = (oracle.authenticate_score_many if oracle.mode is OracleMode.SCORE
                    else oracle.authenticate_binary_many)
            with pytest.raises(ValueError, match=r"^probe contains non-finite values$"):
                one("a", [0.0, bad, 1.0])
            with pytest.raises(ValueError, match=r"^probes contains non-finite values$"):
                many("a", [[0.6, -0.8, 0.1], [0.0, 1.0, bad]])
            assert oracle.ledger_snapshot() == (0, {})
        # the refused probes drew no noise
        refused, fresh = (both_modes(metric, noise_sigma=0.5)[0] for _ in range(2))
        with pytest.raises(ValueError):
            refused.authenticate_score("a", [bad, 0.0, 0.0])
        assert refused.authenticate_score("a", [0.6, -0.8, 0.1]) == fresh.authenticate_score("a", [0.6, -0.8, 0.1])

    @pytest.mark.parametrize("metric", list(Metric))
    def test_integer_beyond_float_range_refused_and_not_counted(self, metric):
        """An integer no float can hold (as a JSON number may be) is refused
        with a ``ValueError``, as the validators refuse it, not an
        ``OverflowError``."""
        huge = 10**400
        for oracle in both_modes(metric):
            one = oracle.authenticate_score if oracle.mode is OracleMode.SCORE else oracle.authenticate_binary
            many = (oracle.authenticate_score_many if oracle.mode is OracleMode.SCORE
                    else oracle.authenticate_binary_many)
            with pytest.raises(ValueError, match=r"^probe holds an integer beyond float range$"):
                one("a", [0.0, huge, 1.0])
            with pytest.raises(ValueError, match=r"^probes holds an integer beyond float range$"):
                many("a", [[0.6, -0.8, 0.1], [0.0, 1.0, huge]])
            assert oracle.ledger_snapshot() == (0, {})

    def test_sed_overflow_of_a_finite_probe_is_served(self):
        score_oracle, binary_oracle = both_modes(Metric.SED)
        huge = [1e200, 0.0, 0.0]
        with np.errstate(over="ignore"):
            assert score_oracle.authenticate_score("a", huge) == math.inf
            assert score_oracle.authenticate_score_many("a", [huge, [0.6, -0.8, 0.0]]).tolist() == [math.inf, 0.0]
            assert binary_oracle.authenticate_binary("a", huge) is False
            assert binary_oracle.authenticate_binary_many("a", [huge, [0.6, -0.8, 0.0]]).tolist() == [False, True]
        assert score_oracle.ledger_snapshot() == binary_oracle.ledger_snapshot() == (3, {"a": 3})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cosine_zero_row_beside_a_non_finite_row(self, bad):
        for oracle in both_modes(Metric.COSINE):
            many = (oracle.authenticate_score_many if oracle.mode is OracleMode.SCORE
                    else oracle.authenticate_binary_many)
            for rows in ([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]], [[bad, 0.0, 0.0], [0.0, 0.0, 0.0]]):
                with pytest.raises(ValueError, match="non-finite"):
                    many("a", rows)
            assert oracle.queries == 0
        oracle = make_oracle(Metric.COSINE)
        oracle.enroll("zero", np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            oracle.authenticate_score("zero", [bad, 1.0, 0.0])
        with pytest.raises(DegenerateTemplateError):
            oracle.authenticate_score("zero", [1.0, 1.0, 0.0])
        assert oracle.queries == 0

    @pytest.mark.parametrize("metric", list(Metric))
    def test_wrong_dimension_refused_before_scoring(self, metric, monkeypatch):
        scored = []
        real = matcher._score_rows
        monkeypatch.setattr(matcher, "_score_rows", lambda *args: scored.append(args) or real(*args))
        for oracle in both_modes(metric):
            one = oracle.authenticate_score if oracle.mode is OracleMode.SCORE else oracle.authenticate_binary
            many = (oracle.authenticate_score_many if oracle.mode is OracleMode.SCORE
                    else oracle.authenticate_binary_many)
            with pytest.raises(DimensionMismatchError, match="probe has dimension 2, expected 3"):
                one("a", [1.0, 0.0])
            with pytest.raises(DimensionMismatchError, match="probes have dimension 4, expected 3"):
                many("a", np.ones((2, 4)))
            # the validator's own order holds: non-finite before dimension
            with pytest.raises(ValueError, match="non-finite"):
                one("a", [np.nan, 0.0])
            with pytest.raises(ValueError, match="1-D"):
                one("a", [[0.6, -0.8, 0.0]])
            assert oracle.queries == 0
        assert scored == []


@pytest.mark.parametrize("metric", list(Metric))
def test_probe_forms_score_as_float64(metric):
    """A list and a float32 array are the float64 probe they convert to,
    alone and in a batch."""
    rng = np.random.default_rng(8)
    enrolled = rng.standard_normal(16)
    rows32 = rng.standard_normal((3, 16)).astype(np.float32)
    rows = rows32.astype(np.float64)
    expected = [score(metric, enrolled, r) for r in rows]
    threshold = Threshold(float(np.median(expected)), metric)
    score_oracle, binary_oracle = (make_oracle(metric, mode, threshold) for mode in OracleMode)
    for oracle in (score_oracle, binary_oracle):
        oracle.enroll("a", enrolled)
    for form in (rows32[0], rows[0].tolist(), rows[0]):
        assert score_oracle.authenticate_score("a", form) == expected[0]
        assert binary_oracle.authenticate_binary("a", form) is binary_oracle.threshold.accepts(expected[0])
    for batch in (rows32, rows.tolist(), rows):
        assert score_oracle.authenticate_score_many("a", batch).tolist() == expected
        assert binary_oracle.authenticate_binary_many("a", batch).tolist() == [
            binary_oracle.threshold.accepts(s) for s in expected]
