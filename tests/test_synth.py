import mmap
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from matchbreak import synth
from matchbreak.matcher import Metric, OracleMode, calibrate_threshold
from matchbreak.rng import make_rng
from matchbreak.synth import (
    IdentityModel,
    build_scenario,
    calibrate_for_model,
    enrollment_template,
    gen_breaking_set,
    gen_identity_model,
    genuine_scores,
    impostor_scores,
    load_model,
    sample_template,
    save_model,
)
from reference_sampler import reference_breaking_values, reference_pair_scores


@pytest.fixture(scope="module")
def model():
    return gen_identity_model(64, 20, within_noise_sigma=0.1, seed=5)


def test_model_is_deterministic():
    a = gen_identity_model(16, 6, seed=3)
    b = gen_identity_model(16, 6, seed=3)
    assert a == b
    c = gen_identity_model(16, 6, seed=4)
    assert not np.array_equal(a.centers, c.centers)


def test_centers_are_unit_norm(model):
    norms = np.linalg.norm(model.centers, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_centers_are_distinct(model):
    for i in range(model.num_identities):
        for j in range(i + 1, model.num_identities):
            assert not np.array_equal(model.centers[i], model.centers[j])


def test_uniform_centers_have_no_preferred_direction():
    # with zero concentration the mean center direction is near the origin
    big = gen_identity_model(64, 10000, center_concentration=0.0, seed=8)
    assert np.linalg.norm(big.centers.mean(axis=0)) < 0.05


def test_concentration_packs_centers_together():
    spread = gen_identity_model(32, 200, center_concentration=0.0, seed=9)
    packed = gen_identity_model(32, 200, center_concentration=20.0, seed=9)
    mean_cos = lambda m: float(np.mean(m.centers @ m.centers.T - np.eye(200)))
    assert mean_cos(packed) > 0.9
    assert abs(mean_cos(spread)) < 0.1


def test_model_requires_two_identities():
    with pytest.raises(ValueError):
        gen_identity_model(16, 1, seed=0)


def test_sample_with_zero_noise_is_the_center():
    m = gen_identity_model(16, 4, within_noise_sigma=0.0, seed=1)
    t = sample_template(m, 2, unit_norm=False, seed=0)
    assert np.array_equal(t.values, m.centers[2])


def test_sample_determinism(model):
    a = sample_template(model, 3, seed=42)
    b = sample_template(model, 3, seed=42)
    assert a == b
    assert a != sample_template(model, 3, seed=43)


def test_sample_unit_norm_flag(model):
    t = sample_template(model, 0, unit_norm=True, seed=7)
    assert t.unit
    assert np.linalg.norm(t.values) == pytest.approx(1.0, abs=1e-12)
    raw = sample_template(model, 0, unit_norm=False, seed=7)
    assert not raw.unit


def test_samples_cluster_around_their_center(model):
    """A sample is closer (in angle) to its own center than to other centers."""
    rng = make_rng(11)
    for identity in range(5):
        t = sample_template(model, identity, seed=rng)
        cosines = model.centers @ t.values
        assert int(np.argmax(cosines)) == identity


def test_identity_out_of_range(model):
    with pytest.raises(ValueError, match="range"):
        sample_template(model, 20, seed=0)
    with pytest.raises(ValueError):
        sample_template(model, -1, seed=0)


def test_enrollment_template_depends_only_on_model(model):
    a = enrollment_template(model, 4)
    b = enrollment_template(model, 4)
    assert a == b
    assert a != enrollment_template(model, 5)


class TestBreakingSet:
    def test_size_and_exclusion(self, model):
        bs = gen_breaking_set(model, 3, 57, seed=2)
        assert len(bs) == 57
        assert bs.excluded == 3
        assert 3 not in bs.labels

    def test_round_robin_labels(self, model):
        bs = gen_breaking_set(model, 0, 40, seed=2)
        others = [i for i in range(model.num_identities) if i != 0]
        expected = [others[j % len(others)] for j in range(40)]
        assert bs.labels.dtype == np.intp
        assert bs.labels.tolist() == expected

    def test_members_are_fresh_samples(self, model):
        bs = gen_breaking_set(model, 0, 25, seed=2)
        # two members of the same identity differ (independent noise draws)
        assert bs.values.shape == (25, model.dim)
        assert bs.labels[0] == bs.labels[19]
        assert not np.array_equal(bs.values[0], bs.values[19])

    def test_deterministic(self, model):
        a = gen_breaking_set(model, 1, 10, seed=33)
        b = gen_breaking_set(model, 1, 10, seed=33)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.values, b.values)
        assert a.unit == b.unit

    @pytest.mark.parametrize("unit_norm", [True, False])
    @pytest.mark.parametrize("k", [1, 7, 19, 33])
    def test_a_shorter_set_is_a_prefix_of_a_longer_one(self, model, unit_norm, k):
        """What lets a set's length stand for the seed search's budget: a
        k-row set is the first k rows of the 50-row set of the same seed."""
        full = gen_breaking_set(model, 4, 50, unit_norm=unit_norm, seed=21)
        short = gen_breaking_set(model, 4, k, unit_norm=unit_norm, seed=21)
        assert np.array_equal(short.values, full.values[:k])
        assert np.array_equal(short.labels, full.labels[:k])

    def test_arrays_are_read_only(self, model):
        bs = gen_breaking_set(model, 1, 10, seed=33)
        with pytest.raises(ValueError, match="read-only"):
            bs.values[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            bs.labels[0] = 1

    def test_templates_are_the_rows(self, model):
        for unit_norm in (True, False):
            bs = gen_breaking_set(model, 1, 5, unit_norm=unit_norm, seed=33)
            assert bs.unit is unit_norm
            assert [t.unit for t in bs.templates] == [unit_norm] * 5
            assert np.array_equal(np.stack([t.values for t in bs.templates]), bs.values)

    @pytest.mark.parametrize("unit_norm", [True, False])
    def test_values_equal_the_reference_draw(self, model, unit_norm):
        rng, ref_rng = make_rng(4, "bs"), make_rng(4, "bs")
        bs = gen_breaking_set(model, 2, 300, unit_norm=unit_norm, seed=rng)
        expected = reference_breaking_values(model, bs.labels, unit_norm=unit_norm, seed=ref_rng)
        assert np.array_equal(bs.values, expected)
        assert rng.random() == ref_rng.random()

    def test_single_identity_model_rejected(self):
        """A model needs a non-target identity for its breaking sets and
        impostor pairs, so it is refused with one identity."""
        with pytest.raises(ValueError, match="num_identities must be >= 2"):
            IdentityModel(
                dim=4, num_identities=1, centers=np.ones((1, 4)) / 2.0,
                within_noise_sigma=0.1, center_concentration=0.0, seed=0,
            )

    def test_acceptance_rate_tracks_fmr(self, model):
        """Breaking-set members are impostors, so a threshold calibrated to a
        false-match rate accepts about that fraction of them."""
        fmr = 0.05
        scores = impostor_scores(model, Metric.SED, 50000, seed=1)
        threshold = calibrate_threshold(scores, fmr, Metric.SED).threshold
        accepted = 0
        total = 0
        for target in range(10):
            enrolled = enrollment_template(model, target)
            bs = gen_breaking_set(model, target, 2000, seed=make_rng(6, "bs", target))
            distances = np.sum((bs.values - enrolled.values) ** 2, axis=1)
            accepted += int(np.sum(distances <= threshold.value))
            total += len(bs)
        rate = accepted / total
        assert 0.5 * fmr < rate < 2.0 * fmr


class TestPairScores:
    def test_impostor_pairs_never_same_identity(self):
        """With two identities a same-identity 'impostor' pair would score 0
        under zero noise; distinct-identity pairs cannot."""
        m = gen_identity_model(8, 2, within_noise_sigma=0.0, seed=2)
        scores = impostor_scores(m, Metric.SED, 5000, unit_norm=False, seed=0)
        assert np.min(scores) > 0.0

    def test_genuine_beats_impostor(self, model):
        gen = genuine_scores(model, Metric.SED, 2000, seed=3)
        imp = impostor_scores(model, Metric.SED, 2000, seed=4)
        assert np.median(gen) < np.median(imp)
        gen_c = genuine_scores(model, Metric.COSINE, 2000, seed=3)
        imp_c = impostor_scores(model, Metric.COSINE, 2000, seed=4)
        assert np.median(gen_c) > np.median(imp_c)

    def test_unit_norm_sed_bounded(self, model):
        scores = impostor_scores(model, Metric.SED, 1000, unit_norm=True, seed=5)
        assert np.max(scores) <= 4.0 + 1e-12

    def test_deterministic_and_chunk_invariant(self, model):
        a = impostor_scores(model, Metric.SED, 1000, seed=8)
        b = impostor_scores(model, Metric.SED, 1000, seed=8)
        assert np.array_equal(a, b)
        # a count past one 20,000-pair chunk draws chunk by chunk like the reference
        crossing = impostor_scores(model, Metric.SED, 20000 + 777, seed=8)
        expected = reference_pair_scores(
            model, Metric.SED, 20000 + 777, impostor=True, unit_norm=True, seed=make_rng(8)
        )
        assert np.array_equal(crossing, expected)

    @pytest.mark.parametrize("metric", [Metric.SED, Metric.COSINE])
    @pytest.mark.parametrize("unit_norm", [True, False])
    @pytest.mark.parametrize("impostor", [True, False])
    def test_bit_identical_to_reference(self, model, metric, unit_norm, impostor):
        """Same draws in the same order and the same arithmetic as the
        whole-chunk reference, for counts that end inside the first row
        block, just past it, and just past the first chunk."""
        sample = impostor_scores if impostor else genuine_scores
        block = synth._BLOCK_ELEMENTS // model.dim
        for n_pairs in (1, block + 1, 20001):
            rng, ref_rng = make_rng(12, n_pairs), make_rng(12, n_pairs)
            scores = sample(model, metric, n_pairs, unit_norm=unit_norm, seed=rng)
            expected = reference_pair_scores(
                model, metric, n_pairs, impostor=impostor, unit_norm=unit_norm, seed=ref_rng
            )
            assert np.array_equal(scores, expected), n_pairs
            assert rng.random() == ref_rng.random(), n_pairs

    def test_memory_is_one_chunk_buffer(self, monkeypatch):
        """Each call asks ``_mapped_empty`` for one ``(min(20000, n), d)``
        chunk buffer, which tracemalloc cannot see, and everything else it
        allocates peaks below four 512 KB row blocks (about 3.2 at d=256);
        building whole-chunk temporaries peaked near 196 MiB."""
        wide = gen_identity_model(256, 50, seed=2)
        mapped_empty, asked = synth._mapped_empty, []

        def recording(rows, dim):
            asked.append(rows * dim * 8)
            return mapped_empty(rows, dim)

        monkeypatch.setattr(synth, "_mapped_empty", recording)
        for n_pairs in (40000, 1000):
            asked.clear()
            tracemalloc.start()
            try:
                impostor_scores(wide, Metric.SED, n_pairs, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert asked == [min(20000, n_pairs) * 256 * 8]
            assert peak < 4 * synth._BLOCK_ELEMENTS * 8

    def test_cosine_range(self, model):
        scores = impostor_scores(model, Metric.COSINE, 1000, seed=9)
        assert np.all(scores >= -1.0 - 1e-12)
        assert np.all(scores <= 1.0 + 1e-12)


class TestMappedArrays:
    @pytest.mark.parametrize("name, value", [("MAP_PRIVATE", None), ("MADV_HUGEPAGE", None), ("MADV_HUGEPAGE", -1)],
                             ids=["no-private-mapping", "no-huge-page-advice", "advice-refused"])
    def test_same_bits_whatever_the_platform_offers(self, model, monkeypatch, name, value):
        """Breaking sets and calibration scores do not depend on where their
        arrays live: ``np.empty`` where ``mmap`` has no ``MAP_PRIVATE``
        (Windows), no advice without ``MADV_HUGEPAGE`` (macOS) or where the
        kernel refuses it."""
        def draw():
            return (
                gen_breaking_set(model, 1, 300, seed=7).values,
                impostor_scores(model, Metric.SED, 20001, seed=7),
                genuine_scores(model, Metric.COSINE, 500, unit_norm=False, seed=7),
            )

        mapped = draw()
        if value is None:
            monkeypatch.delattr(mmap, name, raising=False)
        else:
            monkeypatch.setattr(mmap, name, value)
        for a, b in zip(mapped, draw()):
            assert np.array_equal(a, b)
        owns_its_data = synth._mapped_empty(3, 2).base is None
        assert owns_its_data is (name == "MAP_PRIVATE")

    def test_resident_memory_follows_live_memory(self):
        """Rebuilding four d=512, 4000-row breaking sets while the old ones
        are still referenced, as a benchmark set-up does, leaves resident
        memory where the first build left it. With the sets on glibc's heap
        the freed sets stayed resident: 77 MB above the start after the
        first build, then 124 and 140 MB."""
        if not Path("/proc/self/status").is_file():
            pytest.skip("needs /proc/self/status")
        script = textwrap.dedent("""
            import matchbreak as mb

            def vm_rss_mb():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmRSS:"):
                            return int(line.split()[1]) / 1024

            model = mb.gen_identity_model(512, 300, seed=1)

            def build():
                return {t: mb.gen_breaking_set(model, t, 4000, seed=mb.make_rng(1, "breaking-set", t))
                        for t in range(4)}

            start = vm_rss_mb()
            sets = build()
            print(vm_rss_mb() - start)
            for _ in range(2):
                sets = build()
                print(vm_rss_mb() - start)
        """)
        src = str(Path(synth.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        first, *rebuilt = (float(line) for line in proc.stdout.split())
        assert first > 60.0  # the four sets are 65.5 MB
        assert all(rss < first + 8.0 for rss in rebuilt), (first, rebuilt)


class TestPersistence:
    def test_round_trip(self, tmp_path, model):
        save_model(model, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert back == model

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope")

    def test_manifest_must_be_an_object(self, tmp_path, model):
        save_model(model, tmp_path / "m")
        (tmp_path / "m" / "model.json").write_text("[1]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_model(tmp_path / "m")

    def test_format_tag_checked(self, tmp_path, model):
        save_model(model, tmp_path / "m")
        manifest = tmp_path / "m" / "model.json"
        manifest.write_text(manifest.read_text().replace("matchbreak-model-v1", "other"))
        with pytest.raises(ValueError, match="format"):
            load_model(tmp_path / "m")


def test_identity_model_validates_center_norms():
    centers = np.ones((3, 4))
    with pytest.raises(ValueError, match="unit norm"):
        IdentityModel(
            dim=4, num_identities=3, centers=centers,
            within_noise_sigma=0.1, center_concentration=0.0, seed=0,
        )


def test_identity_model_validates_shape():
    with pytest.raises(ValueError, match="shape"):
        IdentityModel(
            dim=4, num_identities=3, centers=np.ones((2, 4)) / 2.0,
            within_noise_sigma=0.1, center_concentration=0.0, seed=0,
        )


class TestBuildScenario:
    def test_calibrates_enrolls_and_draws_breaking_set(self, model):
        oracle, breaking_set = build_scenario(
            model, Metric.SED, OracleMode.BINARY, [3],
            fmr=0.05, calibration_pairs=5000, calibration_seed=make_rng(1, "cal"),
            breaking_set_size=50, breaking_set_seed=make_rng(1, "bs"),
        )
        expected = calibrate_for_model(model, Metric.SED, 0.05, pairs=5000, seed=make_rng(1, "cal"))
        assert oracle.threshold == expected.threshold
        assert oracle.enrolled_identities == ("3",)
        assert oracle.authenticate_binary("3", enrollment_template(model, 3).values)
        assert len(breaking_set) == 50 and breaking_set.excluded == 3
        assert oracle.queries == 1

    def test_score_oracle_gets_no_breaking_set(self, model):
        oracle, breaking_set = build_scenario(
            model, Metric.COSINE, OracleMode.SCORE, range(4), breaking_set_size=50
        )
        assert oracle.threshold is None
        assert sorted(oracle.enrolled_identities) == ["0", "1", "2", "3"]
        assert breaking_set is None

    def test_breaking_set_needs_one_target(self, model):
        with pytest.raises(ValueError, match="exactly one"):
            build_scenario(model, Metric.SED, OracleMode.BINARY, [0, 1], threshold=0.5, breaking_set_size=10)
