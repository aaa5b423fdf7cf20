"""Remote access to a matching oracle over TCP.

Wire format: one JSON object per line (UTF-8, newline-delimited) in each
direction. Floats survive the round trip exactly because JSON renders them
with ``repr``. Requests carry an ``op``:

    {"op": "auth_many", "claim": "0", "templates": [[...], ...]} -> {"scores": [...]} | {"matches": [...]}
                                                                    | {"error": "LOCKED", "message": ..., "served": n}
    {"op": "stats"}                                              -> {"queries": n}

``auth_many`` answers each row as one authentication, in order; a single
probe is a one-row line. The client splits a batch into lines that fit
:data:`MAX_REQUEST_BYTES` even when every number takes its longest
rendering, so one batch may take several round trips. Under a query limit
the server serves the rows of a line that fit, then answers ``LOCKED`` with
their number as ``served``; those rows count on its ledger and in the
client's ``sent_queries``.

Errors come back as ``{"error": CODE, "message": ...}`` with codes
``BAD_REQUEST``, ``BAD_DIM``, ``UNKNOWN_IDENTITY`` and ``LOCKED``; the
connection stays open after an error, except after a request line longer
than :data:`MAX_REQUEST_BYTES`, which the server answers with
``BAD_REQUEST`` and then closes the connection. Whether ``auth_many``
answers with scores or decisions is the server's choice: the enrolled
templates and the raw scores of a decision-only oracle never cross the
wire.
"""

from __future__ import annotations

import json
import numbers
import socket
import socketserver
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    LockedOutError,
    MatchbreakError,
    OracleModeError,
    UnknownIdentityError,
    WireProtocolError,
)
from .matcher import MatchingOracle, Metric, OracleMode
from .rng import check_seed, make_rng
from .synth import build_scenario, load_model
from .validation import as_matrix, as_vector, check_count

# Longest request line the server reads, newline included. A one-row d=512
# ``auth_many`` line is about 12 KB; the cap keeps one client from making
# the server buffer an unbounded line.
MAX_REQUEST_BYTES = 1 << 20

# Longest JSON rendering of a finite float64 (``-2.2250738585072014e-308``)
# plus its separator: the worst case ``auth_many`` lines are sized for.
_MAX_FLOAT_CHARS = 25


@dataclass(frozen=True)
class WireMessage:
    """One line of the protocol: a single JSON object."""

    payload: dict

    def to_line(self) -> bytes:
        return json.dumps(self.payload, separators=(",", ":")).encode("utf-8") + b"\n"

    @classmethod
    def from_line(cls, line: bytes) -> "WireMessage":
        try:
            doc = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed wire line: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("wire line must be a JSON object")
        return cls(payload=doc)


def _error(code: str, message: str) -> WireMessage:
    return WireMessage({"error": code, "message": message})


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while line := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            if len(line) > MAX_REQUEST_BYTES:
                message = f"request line longer than {MAX_REQUEST_BYTES} bytes"
                self.wfile.write(_error("BAD_REQUEST", message).to_line())
                return
            if not line.strip():
                continue
            response = self.server.owner._dispatch(line)
            self.wfile.write(response.to_line())


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class OracleServer:
    """Serves one oracle to any number of concurrent TCP clients.

    The oracle's own lock serializes scoring, so the ledger total equals the
    number of authentications served across all connections.
    """

    def __init__(self, oracle: MatchingOracle, bind=("127.0.0.1", 0)):
        self.oracle = oracle
        self._tcp = _ThreadingServer(tuple(bind), _Handler)
        self._tcp.owner = self
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return host, port

    def start(self) -> "OracleServer":
        if self._thread is None:
            self._thread = threading.Thread(target=self._tcp.serve_forever, daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in this thread until interrupted, then call :meth:`shutdown`."""
        self._tcp.serve_forever()

    def shutdown(self) -> None:
        """Stop the loop :meth:`start` began, if any, and close the socket."""
        if self._thread is not None:
            self._tcp.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._tcp.server_close()

    def __enter__(self) -> "OracleServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _dispatch(self, raw: bytes) -> WireMessage:
        try:
            message = WireMessage.from_line(raw)
        except ValueError as exc:
            return _error("BAD_REQUEST", str(exc))
        payload = message.payload
        op = payload.get("op")
        try:
            if op == "auth_many":
                claim, templates = self._auth_args(payload)
                if self.oracle.mode is OracleMode.SCORE:
                    scores = self.oracle.authenticate_score_many(claim, templates)
                    return WireMessage({"scores": scores.tolist()})
                matches = self.oracle.authenticate_binary_many(claim, templates)
                return WireMessage({"matches": matches.tolist()})
            if op == "stats":
                return WireMessage({"queries": self.oracle.queries})
            return _error("BAD_REQUEST", f"unknown op {op!r}")
        except LockedOutError as exc:
            return WireMessage({"error": "LOCKED", "message": str(exc), "served": exc.served})
        except UnknownIdentityError as exc:
            return _error("UNKNOWN_IDENTITY", str(exc.args[0]))
        except DimensionMismatchError as exc:
            return _error("BAD_DIM", str(exc))
        except (MatchbreakError, ValueError, TypeError) as exc:
            return _error("BAD_REQUEST", str(exc))

    @staticmethod
    def _auth_args(payload: dict) -> tuple[str, list]:
        claim = payload.get("claim")
        if not isinstance(claim, str) or not claim:
            raise ValueError("claim must be a nonempty string")
        templates = payload.get("templates")
        if not isinstance(templates, list):
            raise ValueError("templates must be a list")
        return claim, templates


_CONFIG_KEYS = frozenset({
    "model", "metric", "mode", "threshold", "fmr", "calibration_pairs", "calibration_seed",
    "noise_sigma", "noise_seed", "query_limit", "unit_norm", "identities", "host", "port",
})


def server_from_config(doc: dict, *, base_dir=None) -> OracleServer:
    """Build a server from a config document.

    Keys: ``model`` (directory, relative to ``base_dir``), ``metric``,
    ``mode``, and either ``threshold`` or ``fmr`` (+ optional
    ``calibration_pairs``, ``calibration_seed``); optional ``noise_sigma``,
    ``noise_seed``, ``query_limit``, ``unit_norm``, ``identities`` (default:
    enroll all), ``host``, ``port``. Any other key, or a number of the
    wrong kind, is an error raised before the model is loaded.
    """
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown server config keys: {', '.join(unknown)}")
    if "model" not in doc:
        raise ValueError("server config needs a 'model' directory")
    unit_norm = doc.get("unit_norm", True)
    if not isinstance(unit_norm, bool):
        raise ValueError(f"server config 'unit_norm' must be true or false, got {unit_norm!r}")
    for key, value in doc.items():
        try:
            if key in ("calibration_pairs", "query_limit") and value is not None:
                check_count(value, key)
            elif key in ("calibration_seed", "noise_seed"):
                check_seed(value)
            elif key == "port" and check_count(value, key, minimum=0) > 65535:
                raise ValueError(f"must be in [0, 65535], got {value}")
            elif key in ("threshold", "fmr", "noise_sigma") and value is not None and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ValueError(f"must be a number, got {value!r}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"server config {key!r}: {exc}") from exc
    base = Path(base_dir) if base_dir is not None else Path(".")
    model = load_model(base / doc["model"])
    identities = doc.get("identities")
    oracle, _ = build_scenario(
        model,
        Metric(doc.get("metric", "sed")),
        OracleMode(doc.get("mode", "binary")),
        range(model.num_identities) if identities is None else identities,
        threshold=doc.get("threshold"),
        fmr=doc.get("fmr"),
        calibration_pairs=doc.get("calibration_pairs", 100000),
        calibration_seed=make_rng(doc.get("calibration_seed", 0), "serve-calibration"),
        noise_sigma=float(doc.get("noise_sigma", 0.0)),
        noise_seed=doc.get("noise_seed", 0),
        query_limit=doc.get("query_limit"),
        unit_norm=unit_norm,
    )
    bind = (doc.get("host", "127.0.0.1"), doc.get("port", 0))
    return OracleServer(oracle, bind)


def _parse_address(address) -> tuple[str, int]:
    """``(host, port)`` from a ``"host:port"`` string or a 2-tuple. A host
    with a ``/`` in it, such as ``tcp://host:port``, is refused here rather
    than at name resolution."""
    if isinstance(address, tuple) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if sep and host and "/" not in host and port.isdigit():
            return host, int(port)
    raise ValueError(f"cannot parse address {address!r}; expected host:port")


_ERROR_CLASSES = {
    "UNKNOWN_IDENTITY": UnknownIdentityError,
    "BAD_DIM": DimensionMismatchError,
}


class RemoteOracle:
    """Client-side handle with the same call surface as the local oracle.

    ``metric`` and ``mode`` mirror the server's configuration; they let
    attacks pick directions and guard misuse without extra round trips.
    Connecting is eager, so an unreachable server fails at construction.
    ``queries`` asks the server's ledger; ``sent_queries`` counts the
    authentications this client got answered, one per row of a batch.
    """

    def __init__(self, address, *, metric: Metric, mode: OracleMode, timeout: float = 30.0):
        self.metric = Metric(metric)
        self.mode = OracleMode(mode)
        host, port = _parse_address(address)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self.sent_queries = 0

    def _request(self, payload: dict) -> dict:
        with self._lock:
            self._file.write(WireMessage(payload).to_line())
            self._file.flush()
            line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            doc = WireMessage.from_line(line).payload
        except ValueError as exc:
            raise WireProtocolError(f"unparseable server response: {exc}") from exc
        if "error" in doc:
            code = doc["error"]
            message = doc.get("message", str(code))
            if code == "LOCKED":
                served = doc.get("served", 0)
                if not isinstance(served, int) or isinstance(served, bool) or served < 0:
                    raise WireProtocolError(f"expected a served count, got {served!r}")
                raise LockedOutError(message, served=served)
            exc_class = _ERROR_CLASSES.get(code)
            if exc_class is not None:
                raise exc_class(message)
            raise WireProtocolError(message)
        return doc

    def authenticate_score(self, identity: str, probe) -> float:
        return float(self.authenticate_score_many(identity, as_vector(probe, name="probe")[None, :])[0])

    def authenticate_binary(self, identity: str, probe) -> bool:
        return bool(self.authenticate_binary_many(identity, as_vector(probe, name="probe")[None, :])[0])

    def authenticate_score_many(self, identity: str, probes) -> np.ndarray:
        if self.mode is not OracleMode.SCORE:
            raise OracleModeError("oracle is in binary mode and does not release scores")
        values = self._auth_many(identity, probes, "scores")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise WireProtocolError("expected numeric scores")
        return np.array(values, dtype=np.float64)

    def authenticate_binary_many(self, identity: str, probes) -> np.ndarray:
        if self.mode is not OracleMode.BINARY:
            raise OracleModeError("oracle is in score mode; use authenticate_score")
        values = self._auth_many(identity, probes, "matches")
        if not all(isinstance(v, bool) for v in values):
            raise WireProtocolError("expected boolean matches")
        return np.array(values, dtype=bool)

    def _auth_many(self, identity: str, probes, key: str) -> list:
        """Send ``probes`` in ``auth_many`` lines of at most
        :data:`MAX_REQUEST_BYTES`; returns the answers under ``key``. On
        lockout the rows the server served count in ``sent_queries``, and
        the error's ``served`` counts them over the whole batch."""
        rows = as_matrix(probes, name="probes")
        empty = {"op": "auth_many", "claim": identity, "templates": []}
        head = len(json.dumps(empty, separators=(",", ":"))) + 1  # newline
        row_bytes = rows.shape[1] * _MAX_FLOAT_CHARS + 2  # brackets and separator
        step = max(1, (MAX_REQUEST_BYTES - head) // row_bytes)
        answers = []
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            try:
                doc = self._request({"op": "auth_many", "claim": identity, "templates": chunk.tolist()})
            except LockedOutError as exc:
                if exc.served > len(chunk):
                    raise WireProtocolError(f"server served {exc.served} of {len(chunk)} rows") from exc
                self.sent_queries += exc.served
                exc.served += len(answers)
                raise
            values = doc.get(key)
            if not isinstance(values, list) or len(values) != len(chunk):
                raise WireProtocolError(f"expected {len(chunk)} {key}, got {values!r:.80}")
            self.sent_queries += len(values)
            answers.extend(values)
        return answers

    @property
    def queries(self) -> int:
        doc = self._request({"op": "stats"})
        value = doc.get("queries")
        if not isinstance(value, int) or isinstance(value, bool):
            raise WireProtocolError(f"expected an integer query count, got {value!r}")
        return value

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "RemoteOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
