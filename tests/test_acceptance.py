"""End-to-end checks of the attack suite at its documented operating points.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and asserts
the same condition, so this module both documents and enforces the
performance envelope: exact query budgets, loss ceilings, bracket widths,
calibration windows, wall-clock limits, and local/remote agreement. All
randomness is seeded, so a pass here is reproducible bit for bit.
"""

import math
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from matchbreak.attacks import (
    AcceptAverageAttack,
    BoundarySearchAttack,
    CosineScoreAttack,
    HillClimbAttack,
    SedScoreAttack,
    boundary_point,
    find_seed_match,
)
from matchbreak.evaluation import (
    calibrate_for_model,
    passes_system,
    reconstruction_loss,
)
from matchbreak.matcher import (
    MatchingOracle,
    Metric,
    OracleConfig,
    OracleMode,
    sed_score,
)
from matchbreak.netoracle import RemoteOracle, serve
from matchbreak.rng import make_rng
from matchbreak.synth import (
    enrollment_template,
    gen_breaking_set,
    gen_identity_model,
    impostor_scores,
)

NUM_TARGETS = 50
PRECISION = 20
CALIBRATION_PAIRS = 100_000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _score_oracle(model, target, metric):
    oracle = MatchingOracle(OracleConfig(metric=metric, mode=OracleMode.SCORE))
    oracle.enroll(str(target), enrollment_template(model, target).values)
    return oracle


def _binary_oracle(model, target, threshold):
    oracle = MatchingOracle(
        OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY, threshold=threshold)
    )
    oracle.enroll(str(target), enrollment_template(model, target).values)
    return oracle


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def model128():
    return gen_identity_model(128, 300, within_noise_sigma=0.1, seed=7)


@pytest.fixture(scope="module")
def model512():
    return gen_identity_model(512, 300, within_noise_sigma=0.1, seed=7)


@pytest.fixture(scope="module")
def model16():
    return gen_identity_model(16, 30, within_noise_sigma=0.1, seed=5)


@pytest.fixture(scope="module")
def sed_cal(model128):
    return {
        fmr: calibrate_for_model(model128, Metric.SED, fmr, pairs=CALIBRATION_PAIRS, seed=101 + i)
        for i, fmr in enumerate((0.01, 0.001))
    }


@pytest.fixture(scope="module")
def cos_cal(model128):
    return {
        fmr: calibrate_for_model(model128, Metric.COSINE, fmr, pairs=CALIBRATION_PAIRS, seed=103 + i)
        for i, fmr in enumerate((0.01, 0.001))
    }


@pytest.fixture(scope="module")
def sed512_cal(model512):
    return calibrate_for_model(model512, Metric.SED, 0.01, pairs=CALIBRATION_PAIRS, seed=105)


@pytest.fixture(scope="module")
def cal16(model16):
    return calibrate_for_model(model16, Metric.SED, 0.05, pairs=50_000, seed=106)


@dataclass(frozen=True)
class ScoreRun:
    target: int
    truth: np.ndarray
    recovered: np.ndarray
    queries: int
    loss: float


def _run_score_attacks(model, metric, attack_cls, label):
    runs = []
    started = time.perf_counter()
    for target in range(NUM_TARGETS):
        truth = enrollment_template(model, target)
        oracle = _score_oracle(model, target, metric)
        result = attack_cls(model.dim).reconstruct(
            oracle, str(target), seed=make_rng(11, label, target)
        )
        loss = reconstruction_loss(result.recovered.values, truth.values, metric)
        runs.append(
            ScoreRun(target, truth.values, result.recovered.values, result.queries_used, loss)
        )
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def sed128_runs(model128):
    return _run_score_attacks(model128, Metric.SED, SedScoreAttack, "sed128")


@pytest.fixture(scope="module")
def sed512_runs(model512):
    return _run_score_attacks(model512, Metric.SED, SedScoreAttack, "sed512")


@pytest.fixture(scope="module")
def cos128_runs(model128):
    return _run_score_attacks(model128, Metric.COSINE, CosineScoreAttack, "cos128")


@dataclass(frozen=True)
class BoundaryRun:
    target: int
    truth: np.ndarray
    recovered: np.ndarray
    loss: float
    queries: int
    seed_attempts: int
    redraws: int
    resamples: int


def _run_boundary_search(model, threshold, threshold_estimate, targets, set_size=2000):
    runs = []
    started = time.perf_counter()
    for target in targets:
        truth = enrollment_template(model, target)
        oracle = _binary_oracle(model, target, threshold)
        breaking_set = gen_breaking_set(
            model, target, set_size, seed=make_rng(23, "bs", model.dim, target)
        )
        attack = BoundarySearchAttack(model.dim, threshold_estimate, precision=PRECISION)
        result = attack.reconstruct(
            oracle, str(target), seed=make_rng(23, "run", model.dim, target),
            breaking_set=breaking_set,
        )
        runs.append(BoundaryRun(
            target, truth.values, result.recovered.values,
            reconstruction_loss(result.recovered.values, truth.values, Metric.SED),
            result.queries_used, result.params["seed_attempts"],
            result.params["boundary_redraws"], result.params["solve_resamples"],
        ))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def boundary128(model128, sed_cal):
    threshold = sed_cal[0.01].threshold
    return _run_boundary_search(model128, threshold, threshold.value, range(NUM_TARGETS))


@pytest.fixture(scope="module")
def boundary512(model512, sed512_cal):
    threshold = sed512_cal.threshold
    return _run_boundary_search(model512, threshold, threshold.value, range(NUM_TARGETS))


@pytest.fixture(scope="module")
def boundary128_inflated(model128, sed_cal):
    # same seeds and breaking sets as boundary128, threshold guess doubled
    threshold = sed_cal[0.01].threshold
    return _run_boundary_search(model128, threshold, 2.0 * threshold.value, range(24))


# --------------------------------------------------------------- criteria


def test_criterion_01_sed_solve_is_exact_in_dim_plus_one_queries(sed128_runs, sed512_runs):
    runs128, _ = sed128_runs
    runs512, elapsed512 = sed512_runs
    loss128 = max(r.loss for r in runs128)
    loss512 = max(r.loss for r in runs512)
    queries_ok = all(r.queries == 129 for r in runs128) and all(
        r.queries == 513 for r in runs512
    )
    ok = loss128 < 1e-10 and loss512 < 1e-10 and queries_ok and elapsed512 < 120.0
    _report(1, ok, (
        f"sed solve d=128: worst loss {loss128:.2e}, 129 queries each; "
        f"d=512: worst loss {loss512:.2e}, 513 queries each, block {elapsed512:.1f}s (<120s)"
    ))


def test_criterion_02_cosine_solve_is_exact_in_dim_queries(cos128_runs):
    runs, _ = cos128_runs
    worst = max(r.loss for r in runs)
    queries_ok = all(r.queries == 128 for r in runs)
    ok = worst < 1e-10 and queries_ok
    _report(2, ok, f"cosine solve d=128: worst loss {worst:.2e}, 128 queries each")


def test_criterion_03_score_reconstructions_pass_the_system(
    sed128_runs, cos128_runs, sed_cal, cos_cal
):
    runs_by_metric = {Metric.SED: sed128_runs[0], Metric.COSINE: cos128_runs[0]}
    cals = {Metric.SED: sed_cal, Metric.COSINE: cos_cal}
    accepted = 0
    total = 0
    for metric, runs in runs_by_metric.items():
        for fmr in (0.01, 0.001):
            threshold = cals[metric][fmr].threshold
            for run in runs:
                total += 1
                accepted += passes_system(run.recovered, run.truth, threshold)
    ok = accepted == total
    _report(3, ok, f"{accepted}/{total} score-based reconstructions accepted "
                   f"at 1% and 0.1% FMR (both metrics)")


def test_criterion_04_boundary_search_loss_at_1pct_fmr(boundary128):
    runs, elapsed = boundary128
    losses = np.array([r.loss for r in runs])
    median = float(np.median(losses))
    mean = float(np.mean(losses))
    ok = median <= 1e-4 and mean <= 1e-3 and elapsed < 300.0
    _report(4, ok, (
        f"boundary search d=128, P=20, 1% FMR: median loss {median:.2e} (<=1e-4), "
        f"mean {mean:.2e} (<=1e-3), block {elapsed:.1f}s (<300s)"
    ))


def test_criterion_05_query_budget_accounting(boundary128, boundary512):
    runs128, _ = boundary128
    runs512, _ = boundary512

    clean = [r for r in runs128 if r.redraws == 0 and r.resamples == 0]
    exact = all(r.queries - r.seed_attempts == PRECISION * 129 for r in clean)
    mean128 = float(np.mean([r.queries for r in runs128]))
    low128, high128 = PRECISION * 129 + 0.5 / 0.01, PRECISION * 129 + 2.0 / 0.01
    mean512 = float(np.mean([r.queries for r in runs512]))
    ok = (
        exact and len(clean) > 0
        and low128 <= mean128 <= high128
        and 10_300 <= mean512 <= 11_500
    )
    _report(5, ok, (
        f"non-seed queries = {PRECISION * 129} on {len(clean)}/{len(runs128)} redraw-free runs; "
        f"mean totals {mean128:.1f} in [{low128:.0f}, {high128:.0f}] (d=128) "
        f"and {mean512:.1f} in [10300, 11500] (d=512)"
    ))


def test_criterion_06_boundary_points_land_inside_the_bracket(model16, cal16):
    threshold = cal16.threshold.value
    radius = math.sqrt(threshold)
    num_targets = 20
    calls_per_precision = 1000

    anchors = []
    for target in range(num_targets):
        truth = enrollment_template(model16, target)
        oracle = _binary_oracle(model16, target, cal16.threshold)
        breaking_set = gen_breaking_set(model16, target, 1500, seed=make_rng(6, "bs", target))
        seed_member, _ = find_seed_match(oracle, str(target), breaking_set)
        anchors.append((oracle, str(target), seed_member, truth.values))

    worst_fraction = 0.0
    violations = 0
    for precision in (5, 10, 20):
        window = threshold / 2 ** (precision - 1)
        rng = make_rng(6, "bracket", precision)
        for i in range(calls_per_precision):
            oracle, claim, start, truth = anchors[i % num_targets]
            point = boundary_point(oracle, claim, start, radius, precision, rng)
            deviation = abs(sed_score(point, truth) - threshold)
            worst_fraction = max(worst_fraction, deviation / window)
            violations += deviation > window
    ok = violations == 0
    _report(6, ok, (
        f"3000 boundary points (P in 5/10/20): worst |dist^2 - T| at "
        f"{worst_fraction:.3f} of the T/2^(P-1) window, {violations} outside"
    ))


def test_criterion_07_beats_accept_averaging_at_equal_budget(model128, sed_cal, boundary128):
    runs, _ = boundary128
    threshold = sed_cal[0.01].threshold
    ours_mean = float(np.mean([r.loss for r in runs]))

    baseline_losses = []
    curves = []
    for run in runs:
        oracle = _binary_oracle(model128, run.target, threshold)
        breaking_set = gen_breaking_set(
            model128, run.target, run.queries, seed=make_rng(31, "base-bs", run.target)
        )
        result = AcceptAverageAttack().reconstruct(
            oracle, str(run.target), seed=make_rng(31, "base", run.target),
            breaking_set=breaking_set,
        )
        assert result.queries_used == run.queries  # equal budget by construction
        baseline_losses.append(
            reconstruction_loss(result.recovered.values, run.truth, Metric.SED)
        )
        accepted = breaking_set.values[result.params["accepted_indices"]]
        prefix_means = np.cumsum(accepted, axis=0) / np.arange(1, len(accepted) + 1)[:, None]
        curves.append([
            reconstruction_loss(m, run.truth, Metric.SED) for m in prefix_means
        ])

    baseline_mean = float(np.mean(baseline_losses))
    depth = min(len(c) for c in curves)
    averaged = np.mean([c[:depth] for c in curves], axis=0)
    smoothed = np.convolve(averaged, np.full(5, 0.2), mode="valid")
    curve_ok = bool(np.all(np.diff(smoothed) <= 1e-9))
    ok = baseline_mean > 0.05 and ours_mean < baseline_mean / 100.0 and curve_ok
    _report(7, ok, (
        f"equal budgets: boundary-search mean loss {ours_mean:.2e} vs accept-average "
        f"{baseline_mean:.3f} ({baseline_mean / max(ours_mean, 1e-300):.0f}x); averaged "
        f"curve over {depth} accepts non-increasing after 5-point smoothing: {curve_ok}"
    ))


def test_criterion_08_hill_climb_descends_but_never_matches_algebra(model128, sed128_runs):
    algebraic, _ = sed128_runs
    monotone = True
    dominated = True
    finals = []
    for target in range(10):
        truth = enrollment_template(model128, target)
        oracle = _score_oracle(model128, target, Metric.SED)
        attack = HillClimbAttack(128, step_size=0.07, budget=4000, record_trace=True)
        result = attack.reconstruct(oracle, str(target), seed=make_rng(55, "hill", target))
        scores = [score for _, score in result.params["trace"]]
        monotone &= all(b < a for a, b in zip(scores, scores[1:]))
        loss = reconstruction_loss(result.recovered.values, truth.values, Metric.SED)
        dominated &= loss > algebraic[target].loss
        finals.append(loss)
    ok = monotone and dominated
    _report(8, ok, (
        f"10 hill climbs (step 0.07, budget 4000): accepted scores strictly decreasing "
        f"({monotone}), final losses {min(finals):.3f}..{max(finals):.3f} all above the "
        f"algebraic solve ({dominated})"
    ))


def test_criterion_09_threshold_guess_off_by_2x_is_harmless(boundary128, boundary128_inflated):
    exact_runs, _ = boundary128
    inflated_runs, _ = boundary128_inflated
    ratios = np.array([
        b.loss / a.loss for a, b in zip(exact_runs[: len(inflated_runs)], inflated_runs)
    ])
    geometric = float(np.exp(np.mean(np.log(ratios))))
    median = float(np.median(ratios))
    ok = 0.1 <= geometric <= 10.0 and 0.1 <= median <= 10.0
    _report(9, ok, (
        f"threshold guess T vs 2T over {len(ratios)} paired runs: loss ratio "
        f"geometric mean {geometric:.2f}, median {median:.2f}, both within 10x"
    ))


def test_criterion_10_remote_oracle_changes_nothing(model16, cal16):
    threshold = cal16.threshold
    target = 3
    breaking_set = gen_breaking_set(model16, target, 800, seed=make_rng(44, "bs"))
    cases = (
        (SedScoreAttack(16), Metric.SED, OracleMode.SCORE),
        (CosineScoreAttack(16), Metric.COSINE, OracleMode.SCORE),
        (HillClimbAttack(16, budget=300), Metric.SED, OracleMode.SCORE),
        (AcceptAverageAttack(), Metric.SED, OracleMode.BINARY),
        (BoundarySearchAttack(16, threshold.value, precision=12), Metric.SED, OracleMode.BINARY),
    )

    identical = 0
    ledgers_match = True
    for attack, metric, mode in cases:
        needs_set = breaking_set if mode is OracleMode.BINARY else None
        thr = threshold if mode is OracleMode.BINARY else None

        def fresh_oracle():
            oracle = MatchingOracle(OracleConfig(metric=metric, mode=mode, threshold=thr))
            oracle.enroll(str(target), enrollment_template(model16, target).values)
            return oracle

        local_oracle = fresh_oracle()
        local = attack.reconstruct(
            local_oracle, str(target), seed=make_rng(44, attack.name), breaking_set=needs_set
        )
        served_oracle = fresh_oracle()
        with serve(served_oracle) as server:
            with RemoteOracle(server.address, metric=metric, mode=mode) as remote:
                via_tcp = attack.reconstruct(
                    remote, str(target), seed=make_rng(44, attack.name), breaking_set=needs_set
                )
                identical += bool(
                    np.array_equal(local.recovered.values, via_tcp.recovered.values)
                )
                ledgers_match &= (
                    served_oracle.queries == remote.sent_queries == local_oracle.queries
                )

    per_client = 500
    counts = []
    concurrent_oracle = MatchingOracle(OracleConfig(metric=Metric.SED, mode=OracleMode.SCORE))
    concurrent_oracle.enroll("0", enrollment_template(model16, 0).values)
    with serve(concurrent_oracle) as server:
        def hammer(k):
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as r:
                rng = make_rng(44, "concurrent", k)
                for _ in range(per_client):
                    r.authenticate_score("0", rng.normal(size=16))
                counts.append(r.sent_queries)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    concurrency_ok = counts == [per_client] * 4 and concurrent_oracle.queries == 4 * per_client
    ok = identical == len(cases) and ledgers_match and concurrency_ok
    _report(10, ok, (
        f"{identical}/{len(cases)} attacks reconstruct identical templates over TCP, "
        f"ledgers agree ({ledgers_match}); 4x{per_client} concurrent queries all "
        f"counted ({concurrency_ok})"
    ))


def test_criterion_11_calibrated_thresholds_hold_on_fresh_pairs(model128, sed_cal, cos_cal):
    windows = {0.01: (0.008, 0.012), 0.001: (0.0005, 0.002)}
    measured = {}
    ok = True
    for metric, cals in ((Metric.SED, sed_cal), (Metric.COSINE, cos_cal)):
        for fmr, (low, high) in windows.items():
            threshold = cals[fmr].threshold
            scores = impostor_scores(
                model128, metric, CALIBRATION_PAIRS,
                seed=make_rng(77, "fresh", metric.value, str(fmr)),
            )
            if metric is Metric.SED:
                rate = float(np.mean(scores <= threshold.value))
            else:
                rate = float(np.mean(scores >= threshold.value))
            measured[(metric.value, fmr)] = rate
            ok &= low <= rate <= high
    _report(11, ok, (
        "fresh-pair FMR: "
        + ", ".join(f"{m} @{f:g}: {r:.4%}" for (m, f), r in measured.items())
        + " (windows [0.8%,1.2%] and [0.05%,0.2%])"
    ))
