import json
import socket
import threading

import numpy as np
import pytest

from matchbreak.errors import (
    DimensionMismatchError,
    LockedOutError,
    OracleModeError,
    UnknownIdentityError,
)
from matchbreak.attacks import BoundarySearchAttack
from matchbreak.matcher import (
    MatchingOracle,
    Metric,
    OracleConfig,
    OracleMode,
    Threshold,
    calibrate_threshold,
)
from matchbreak import netoracle
from matchbreak.netoracle import (
    MAX_REQUEST_BYTES,
    OracleServer,
    RemoteOracle,
    WireMessage,
    _parse_address,
    server_from_config,
)
from matchbreak.rng import make_rng
from matchbreak.synth import (
    enrollment_template,
    gen_breaking_set,
    gen_identity_model,
    impostor_scores,
    save_model,
)

DIM = 8


def make_model():
    return gen_identity_model(DIM, 6, within_noise_sigma=0.05, seed=2)


def make_local(mode, metric=Metric.SED, threshold=None, query_limit=None):
    if mode is OracleMode.BINARY and threshold is None:
        threshold = Threshold(0.5, metric)
    oracle = MatchingOracle(OracleConfig(metric=metric, mode=mode, threshold=threshold, query_limit=query_limit))
    model = make_model()
    for i in range(model.num_identities):
        oracle.enroll(str(i), enrollment_template(model, i).values)
    return oracle


def ask(f, payload):
    """Send one request line on a raw connection and read its answer."""
    f.write(WireMessage(payload).to_line())
    f.flush()
    return json.loads(f.readline())


class TestWireMessage:
    def test_float_survives_exactly(self):
        value = 0.1 + 0.2  # not representable in short decimal
        line = WireMessage({"score": value}).to_line()
        back = WireMessage.from_line(line)
        assert back.payload["score"] == value

    def test_one_line_per_message(self):
        line = WireMessage({"op": "stats"}).to_line()
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            WireMessage.from_line(b"[1, 2]\n")
        for line in (b"{nope\n", b"[" * 200_000 + b"\n"):
            with pytest.raises(ValueError, match="malformed"):
                WireMessage.from_line(line)


class TestScoreTransport:
    def test_remote_scores_equal_local(self):
        local = make_local(OracleMode.SCORE)
        shadow = make_local(OracleMode.SCORE)
        rng = make_rng(5, "probes")
        with OracleServer(local) as server:
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                for _ in range(20):
                    probe = rng.normal(size=DIM)
                    assert remote.authenticate_score("3", probe) == shadow.authenticate_score("3", probe)
                assert remote.sent_queries == 20

    def test_binary_response_has_no_score(self):
        local = make_local(OracleMode.BINARY)
        with OracleServer(local) as server:
            with socket.create_connection(server.address) as sock:
                f = sock.makefile("rwb")
                probe = enrollment_template(make_model(), 0).values.tolist()
                f.write(WireMessage({"op": "auth_many", "claim": "0", "templates": [probe]}).to_line())
                f.flush()
                doc = json.loads(f.readline())
        assert doc == {"matches": [True]}

    def test_stats_reads_the_ledger_and_reset_is_refused(self):
        """``stats`` reads the server's ledger; ``reset`` is not a wire op, so
        a client cannot wipe the count it is held to."""
        local = make_local(OracleMode.SCORE)
        with OracleServer(local) as server:
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                assert remote.queries == 0
                remote.authenticate_score("0", np.zeros(DIM))
                remote.authenticate_score("0", np.zeros(DIM))
                assert remote.queries == 2
                assert local.queries == 2
            with socket.create_connection(server.address) as sock:
                f = sock.makefile("rwb")
                assert ask(f, {"op": "reset"}) == {"error": "BAD_REQUEST", "message": "unknown op 'reset'"}
                assert ask(f, {"op": "stats"}) == {"queries": 2}
        assert local.ledger_snapshot() == (2, {"0": 2})


class TestErrorCodes:
    @pytest.fixture()
    def score_server(self):
        with OracleServer(make_local(OracleMode.SCORE)) as server:
            yield server

    def test_unknown_identity(self, score_server):
        with RemoteOracle(score_server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
            with pytest.raises(UnknownIdentityError):
                remote.authenticate_score("nobody", np.zeros(DIM))
            assert remote.sent_queries == 0

    def test_bad_dimension(self, score_server):
        with RemoteOracle(score_server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
            with pytest.raises(DimensionMismatchError):
                remote.authenticate_score("0", np.zeros(DIM + 1))

    def test_locked_after_query_limit(self):
        local = make_local(OracleMode.SCORE, query_limit=3)
        with OracleServer(local) as server:
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                for _ in range(3):
                    remote.authenticate_score("0", np.zeros(DIM))
                with pytest.raises(LockedOutError):
                    remote.authenticate_score("0", np.zeros(DIM))
                assert remote.queries == 3

    def test_deeply_nested_line_keeps_connection_usable(self, score_server):
        with socket.create_connection(score_server.address, timeout=10.0) as sock:
            f = sock.makefile("rwb")
            f.write(b"[" * 200_000 + b"\n")
            f.flush()
            doc = json.loads(f.readline())
            assert doc["error"] == "BAD_REQUEST"
            assert "malformed" in doc["message"]
            f.write(WireMessage({"op": "stats"}).to_line())
            f.flush()
            assert json.loads(f.readline()) == {"queries": 0}

    def test_malformed_line_keeps_connection_usable(self, score_server):
        with socket.create_connection(score_server.address) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            doc = json.loads(f.readline())
            assert doc["error"] == "BAD_REQUEST"
            f.write(WireMessage({"op": "stats"}).to_line())
            f.flush()
            assert json.loads(f.readline()) == {"queries": 0}

    def test_oversized_line_refused_and_connection_closed(self, score_server):
        line = b'{"op":"stats","pad":"' + b"x" * MAX_REQUEST_BYTES + b'"}\n'
        with socket.create_connection(score_server.address, timeout=10.0) as sock:
            sock.sendall(line)
            f = sock.makefile("rb")
            doc = json.loads(f.readline())
            assert doc["error"] == "BAD_REQUEST"
            assert str(MAX_REQUEST_BYTES) in doc["message"]
            try:
                assert f.readline() == b""
            except ConnectionResetError:
                pass  # the unread tail of the line may reset the closed connection
        with RemoteOracle(score_server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
            probe = enrollment_template(make_model(), 0).values
            assert remote.authenticate_score("0", probe) == 0.0

    def test_unknown_op(self, score_server):
        """Single-template ``auth`` is gone too: every query is ``auth_many``."""
        with socket.create_connection(score_server.address) as sock:
            f = sock.makefile("rwb")
            for payload in ({"op": "shutdown"}, {"op": "auth", "claim": "0", "template": [0.0] * DIM}):
                doc = ask(f, payload)
                assert doc["error"] == "BAD_REQUEST"
                assert f"unknown op {payload['op']!r}" in doc["message"]
        assert score_server.oracle.queries == 0

    def test_enroll_is_not_a_wire_op(self, score_server):
        """``enroll`` is not a wire op: it is refused on a connection that
        stays open, and enrolls nothing."""
        with socket.create_connection(score_server.address) as sock:
            f = sock.makefile("rwb")
            doc = ask(f, {"op": "enroll", "claim": "fresh", "template": [1.0] * DIM})
            assert doc == {"error": "BAD_REQUEST", "message": "unknown op 'enroll'"}
            assert ask(f, {"op": "stats"}) == {"queries": 0}
        assert "fresh" not in score_server.oracle.enrolled_identities

    def test_bad_claim_and_template_types(self, score_server):
        with socket.create_connection(score_server.address) as sock:
            f = sock.makefile("rwb")
            for payload in (
                {"op": "auth_many"},
                {"op": "auth_many", "claim": "", "templates": [[0.0]]},
                {"op": "auth_many", "claim": 0, "templates": [[0.0] * DIM]},
                {"op": "auth_many", "claim": "0", "templates": "zeros"},
                {"op": "auth_many", "claim": "0", "templates": [[0.0] * (DIM - 1) + [None]]},
            ):
                f.write(WireMessage(payload).to_line())
                f.flush()
                assert json.loads(f.readline())["error"] == "BAD_REQUEST"

    def test_client_mode_guard_without_round_trip(self, score_server):
        with RemoteOracle(score_server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
            with pytest.raises(OracleModeError):
                remote.authenticate_binary("0", np.zeros(DIM))


class TestEnrollment:
    def test_identities_enroll_in_process_only(self):
        """Enrollment happens on the server's side only: a served oracle
        answers for an identity once it is enrolled in-process, never
        through the wire."""
        oracle = MatchingOracle(OracleConfig(metric=Metric.SED, mode=OracleMode.SCORE))
        template = np.arange(1.0, DIM + 1.0)
        with OracleServer(oracle) as server:
            with socket.create_connection(server.address) as sock:
                f = sock.makefile("rwb")
                assert ask(f, {"op": "enroll", "claim": "fresh", "template": template.tolist()})["error"] == "BAD_REQUEST"
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                with pytest.raises(UnknownIdentityError):
                    remote.authenticate_score("fresh", template)
                oracle.enroll("fresh", template)
                assert remote.authenticate_score("fresh", template) == 0.0
        assert oracle.enrolled_identities == ("fresh",)


class TestConcurrency:
    def test_ledger_matches_client_counts(self):
        local = make_local(OracleMode.SCORE)
        per_client = 200
        counts = []
        errors = []
        with OracleServer(local) as server:
            def worker(k):
                try:
                    with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                        rng = make_rng(9, "client", k)
                        for _ in range(per_client):
                            remote.authenticate_score("1", rng.normal(size=DIM))
                        counts.append(remote.sent_queries)
                except Exception as exc:  # pragma: no cover - surfaced via assert
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert counts == [per_client] * 4
        assert local.queries == 4 * per_client
        assert local.queries_for("1") == 4 * per_client


class TestShutdown:
    def test_an_unstarted_server_shuts_down_at_once_and_frees_its_port(self):
        """No serving loop ever ran, so there is none to wait for."""
        server = OracleServer(make_local(OracleMode.SCORE))
        address = server.address
        closing = threading.Thread(target=server.shutdown, daemon=True)
        closing.start()
        closing.join(timeout=1.0)
        assert not closing.is_alive()
        with socket.socket() as sock:
            sock.bind(address)


class TestAddresses:
    def test_tuple_string_and_url_forms(self):
        """A ``(host, port)`` tuple and a ``"host:port"`` string are the two
        forms; a list and a ``tcp://`` URL are refused with the error that
        names the accepted form."""
        assert _parse_address(("localhost", 9)) == ("localhost", 9)
        assert _parse_address("localhost:9") == ("localhost", 9)
        for bad in (["localhost", 9], "tcp://10.0.0.1:4321"):
            with pytest.raises(ValueError, match="expected host:port"):
                _parse_address(bad)

    def test_rejects_garbage(self):
        for bad in ("localhost", "host:", ":123", "host:port", 42):
            with pytest.raises(ValueError):
                _parse_address(bad)

    def test_unreachable_server_fails_at_construction(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        with pytest.raises(OSError):
            RemoteOracle(("127.0.0.1", port), metric=Metric.SED, mode=OracleMode.SCORE, timeout=0.5)


class TestServerFromConfig:
    @pytest.fixture()
    def model_dir(self, tmp_path):
        save_model(make_model(), tmp_path / "model")
        return tmp_path

    def test_fixed_threshold_config(self, model_dir):
        doc = {"model": "model", "metric": "sed", "mode": "binary", "threshold": 0.5}
        with server_from_config(doc, base_dir=model_dir) as server:
            assert server.oracle.mode is OracleMode.BINARY
            assert len(server.oracle.enrolled_identities) == 6
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.BINARY) as remote:
                probe = enrollment_template(make_model(), 2).values
                assert remote.authenticate_binary("2", probe) is True

    def test_fmr_calibration_config(self, model_dir):
        doc = {"model": "model", "metric": "cosine", "mode": "binary", "fmr": 0.05,
               "calibration_pairs": 5000, "calibration_seed": 1}
        with server_from_config(doc, base_dir=model_dir) as server:
            threshold = server.oracle.config.threshold
            assert threshold is not None
            assert -1.0 < threshold.value < 1.0

    def test_identity_subset(self, model_dir):
        doc = {"model": "model", "mode": "score", "identities": [0, 3]}
        with server_from_config(doc, base_dir=model_dir) as server:
            assert sorted(server.oracle.enrolled_identities) == ["0", "3"]

    def test_binary_mode_needs_threshold(self, model_dir):
        with pytest.raises(ValueError, match="threshold"):
            server_from_config({"model": "model", "mode": "binary"}, base_dir=model_dir)

    def test_missing_model_key(self):
        with pytest.raises(ValueError, match="model"):
            server_from_config({"mode": "score"})

    def test_unknown_keys_are_refused(self, model_dir):
        doc = {"model": "model", "mode": "score", "query_limt": 5, "open_enrollment": True}
        with pytest.raises(ValueError, match="unknown server config keys: open_enrollment, query_limt"):
            server_from_config(doc, base_dir=model_dir)

    @pytest.mark.parametrize(("key", "value"), [
        ("calibration_pairs", 2000.7),
        ("calibration_pairs", True),
        ("noise_seed", 3.9),
        ("port", 0.5),
        ("port", 65536),
        ("calibration_seed", True),
        ("threshold", "1.0"),
        ("fmr", True),
        ("noise_sigma", "0.1"),
    ])
    def test_numbers_of_the_wrong_kind_are_refused_before_the_model_loads(self, monkeypatch, key, value):
        def no_load(path):
            raise AssertionError("the model was loaded")

        monkeypatch.setattr(netoracle, "load_model", no_load)
        doc = {"model": "model", "mode": "binary", "fmr": 0.05, key: value}
        with pytest.raises(ValueError, match=f"server config '{key}'"):
            server_from_config(doc)

    @pytest.mark.parametrize("unit_norm", ["false", 0, None])
    def test_non_bool_unit_norm_is_refused(self, model_dir, unit_norm):
        doc = {"model": "model", "mode": "score", "unit_norm": unit_norm}
        with pytest.raises(ValueError, match="unit_norm"):
            server_from_config(doc, base_dir=model_dir)

    def test_unit_norm_false_enrolls_raw_samples(self, model_dir):
        doc = {"model": "model", "mode": "score", "identities": [1], "unit_norm": False}
        with server_from_config(doc, base_dir=model_dir) as server:
            raw = enrollment_template(make_model(), 1, unit_norm=False).values
            assert server.oracle.authenticate_score("1", raw) == 0.0


def recording(server):
    """Keep every request line the server dispatches."""
    lines = []
    dispatch = server._dispatch

    def keeping(raw):
        lines.append(raw)
        return dispatch(raw)

    server._dispatch = keeping
    return lines


def twin_oracles(metric, mode, enrolled, threshold=None, noise_seed=0, **kwargs):
    """Two identical oracles with ``enrolled`` under claim "0"."""
    oracles = []
    for _ in range(2):
        config = OracleConfig(metric=metric, mode=mode, threshold=threshold, **kwargs)
        oracle = MatchingOracle(config, noise_seed=noise_seed)
        oracle.enroll("0", enrolled)
        oracles.append(oracle)
    return oracles


class TestBatches:
    def test_d512_binary_batch_equals_local_in_capped_lines(self):
        rng = make_rng(5, "batch")
        enrolled = rng.standard_normal(512)
        probes = enrolled + 0.05 * rng.standard_normal((513, 512))
        cut = float(np.median(np.sum((probes - enrolled) ** 2, axis=1)))
        local, served = twin_oracles(Metric.SED, OracleMode.BINARY, enrolled, Threshold(cut, Metric.SED))
        expected = local.authenticate_binary_many("0", probes)
        with OracleServer(served) as server:
            lines = recording(server)
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.BINARY) as remote:
                matches = remote.authenticate_binary_many("0", probes)
                assert remote.sent_queries == 513
        assert matches.dtype == bool and np.array_equal(matches, expected)
        assert 0 < matches.sum() < 513
        assert served.ledger_snapshot() == (513, {"0": 513})
        assert len(lines) > 1
        assert all(len(line) <= MAX_REQUEST_BYTES for line in lines)

    def test_longest_float_renderings_fit_a_line(self):
        local = make_local(OracleMode.SCORE)
        probes = np.full((300, 512), -2.2250738585072014e-308)
        with OracleServer(local) as server:
            lines = recording(server)
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                with pytest.raises(DimensionMismatchError):
                    remote.authenticate_score_many("0", probes)
        assert all(len(line) <= MAX_REQUEST_BYTES for line in lines)
        assert max(len(line) for line in lines) > 0.95 * MAX_REQUEST_BYTES

    @pytest.mark.parametrize("metric", [Metric.SED, Metric.COSINE])
    def test_scores_with_noise_equal_local(self, metric):
        rng = make_rng(6, "scores")
        enrolled = rng.standard_normal(DIM)
        probes = rng.standard_normal((50, DIM))
        local, served = twin_oracles(metric, OracleMode.SCORE, enrolled, noise_sigma=0.2, noise_seed=3)
        expected = local.authenticate_score_many("0", probes)
        with OracleServer(served) as server:
            with RemoteOracle(server.address, metric=metric, mode=OracleMode.SCORE) as remote:
                assert np.array_equal(remote.authenticate_score_many("0", probes), expected)
                assert remote.authenticate_score("0", probes[0]) == local.authenticate_score("0", probes[0])

    def test_lockout_where_lines_span_the_limit(self):
        rng = make_rng(7, "lockout")
        enrolled = rng.standard_normal(512)
        probes = rng.standard_normal((200, 512))
        local, served = twin_oracles(Metric.SED, OracleMode.SCORE, enrolled, query_limit=100)
        with pytest.raises(LockedOutError):
            local.authenticate_score_many("0", probes)
        with OracleServer(served) as server:
            lines = recording(server)
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                with pytest.raises(LockedOutError):
                    remote.authenticate_score_many("0", probes)
                first_line_rows = len(json.loads(lines[0])["templates"])
                assert first_line_rows < 100 < 2 * first_line_rows
                assert remote.sent_queries == 100
        assert served.ledger_snapshot() == local.ledger_snapshot() == (100, {"0": 100})

    def test_locked_answer_carries_the_served_count(self):
        """A ``LOCKED`` answer says how many rows of the refused line were
        served; the client's error counts them over its whole batch, as the
        local oracle's does."""
        rng = make_rng(8, "lockout")
        enrolled = rng.standard_normal(DIM)
        probes = rng.standard_normal((5, DIM))
        local, served = twin_oracles(Metric.SED, OracleMode.SCORE, enrolled, query_limit=3)
        with pytest.raises(LockedOutError) as local_info:
            local.authenticate_score_many("0", probes)
        assert local_info.value.served == 3
        _, fresh = twin_oracles(Metric.SED, OracleMode.SCORE, enrolled, query_limit=3)
        with OracleServer(served) as server:
            with socket.create_connection(server.address) as sock:
                f = sock.makefile("rwb")
                for payload, count in (
                    ({"op": "auth_many", "claim": "0", "templates": probes[:2].tolist()}, None),
                    ({"op": "auth_many", "claim": "0", "templates": probes[2:].tolist()}, 1),
                    ({"op": "auth_many", "claim": "0", "templates": probes[:1].tolist()}, 0),
                ):
                    f.write(WireMessage(payload).to_line())
                    f.flush()
                    doc = json.loads(f.readline())
                    assert doc.get("served") == count
                    assert (doc.get("error") == "LOCKED") == (count is not None)
        with OracleServer(fresh) as server:
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                with pytest.raises(LockedOutError) as remote_info:
                    remote.authenticate_score_many("0", probes)
                assert remote_info.value.served == remote.sent_queries == 3
        assert served.ledger_snapshot() == fresh.ledger_snapshot() == local.ledger_snapshot() == (3, {"0": 3})

    def test_bad_batches(self):
        with OracleServer(make_local(OracleMode.SCORE)) as server:
            with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.SCORE) as remote:
                with pytest.raises(DimensionMismatchError):
                    remote.authenticate_score_many("0", np.zeros((2, DIM + 1)))
                with pytest.raises(UnknownIdentityError):
                    remote.authenticate_score_many("nobody", np.zeros((2, DIM)))
                with pytest.raises(OracleModeError):
                    remote.authenticate_binary_many("0", np.zeros((2, DIM)))
                assert remote.sent_queries == 0
            with socket.create_connection(server.address) as sock:
                f = sock.makefile("rwb")
                for payload in (
                    {"op": "auth_many", "claim": "0", "templates": [[0.0] * DIM, [0.0]]},
                    {"op": "auth_many", "claim": "0", "templates": [0.0] * DIM},
                    {"op": "auth_many", "claim": "0", "template": [[0.0] * DIM]},
                ):
                    f.write(WireMessage(payload).to_line())
                    f.flush()
                    assert json.loads(f.readline())["error"] == "BAD_REQUEST"

    def test_binary_ours_counts_its_own_queries_beside_another_client(self):
        """A recovery over the wire reports the query formula's count and
        asks the server for no ledger figure, while a second client queries
        the same identity."""
        model = gen_identity_model(16, 30, within_noise_sigma=0.1, seed=4)
        threshold = calibrate_threshold(impostor_scores(model, Metric.SED, 50000, seed=0), 0.05, Metric.SED).threshold
        oracle = MatchingOracle(OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY, threshold=threshold))
        oracle.enroll("5", enrollment_template(model, 5).values)
        attack = BoundarySearchAttack(dim=16, threshold_estimate=threshold.value, precision=20)
        bs = gen_breaking_set(model, 5, 400, seed=12)
        stop = threading.Event()
        with OracleServer(oracle) as server:
            lines = recording(server)

            def other_client():
                with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.BINARY) as other:
                    while not stop.is_set():
                        other.authenticate_binary("5", np.zeros(16))

            thread = threading.Thread(target=other_client)
            thread.start()
            try:
                with RemoteOracle(server.address, metric=Metric.SED, mode=OracleMode.BINARY) as remote:
                    result = attack.reconstruct(remote, "5", seed=6, breaking_set=bs)
            finally:
                stop.set()
                thread.join()
        x = result.params
        assert result.queries_used == x["seed_attempts"] + 20 * (17 + x["boundary_redraws"] + x["solve_resamples"])
        assert oracle.queries > result.queries_used
        assert lines and all(json.loads(line)["op"] == "auth_many" for line in lines)
