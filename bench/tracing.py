"""Span tracing for the ``--trace 1`` runs.

The tracer rebinds a fixed list of ``matchbreak`` functions and methods to
wrappers that record one span per call: its name, start, end, parent span
and trace id (the outermost span of the calling thread, usually one
``Attack.reconstruct``). Per-name aggregates (calls, total and self time,
oracle queries issued inside, bytes) are kept as the spans close; the raw
spans are kept in memory up to a cap and written out at the end. Nothing in
the package itself changes, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from pathlib import Path

import numpy as np

# module -> public callables on the measured paths, as "name" or "Class.name"
LAYERS = {
    "validation": ("as_vector",),
    "matcher": (
        "sed_score",
        "MatchingOracle.authenticate_binary",
        "MatchingOracle.authenticate_score",
    ),
    "linalg": ("sphere_center",),
    "rng": ("random_unit_vector",),
    "attacks": ("Attack.reconstruct", "find_seed_match", "boundary_point"),
    "synth": ("gen_breaking_set", "impostor_scores"),
    "evaluation": ("calibrate_for_model", "run_experiment"),
    "netoracle": (
        "WireMessage.to_line",
        "WireMessage.from_line",
        "RemoteOracle._request",
        "RemoteOracle.authenticate_binary",
        "RemoteOracle.authenticate_score",
    ),
}

# spans whose start counts one served authentication query
QUERY_SPANS = frozenset({
    "matcher.MatchingOracle.authenticate_binary",
    "matcher.MatchingOracle.authenticate_score",
    "netoracle.RemoteOracle.authenticate_binary",
    "netoracle.RemoteOracle.authenticate_score",
})

CALLS, TOTAL, SELF, QUERIES, BYTES = range(5)


def _request_bytes(args, result):
    """Bytes of an encoded request line; responses carry no ``op``."""
    return len(result) if "op" in args[0].payload else None


SIZE_HOOKS = {"netoracle.WireMessage.to_line": _request_bytes}


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggs: list[list[list[float]]] = []
        self._aggs_lock = threading.Lock()
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _thread_state(self):
        state = self._local.__dict__
        if "stack" not in state:
            state["stack"] = []
            state["queries"] = 0
            state["agg"] = [[0, 0.0, 0.0, 0, 0] for _ in self.names]
            with self._aggs_lock:
                self._aggs.append(state["agg"])
        return state

    def _call(self, nid, is_query, size_hook, fn, args, kwargs):
        state = self._thread_state()
        stack = state["stack"]
        if is_query:
            state["queries"] += 1
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0, state["queries"]]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            agg = state["agg"][nid]
            agg[CALLS] += 1
            agg[TOTAL] += duration
            agg[SELF] += duration - frame[1]
            agg[QUERIES] += state["queries"] - frame[2] + (1 if is_query else 0)
            if parent is not None:
                parent[1] += duration
            root = stack[0][0] if stack else frame[0]
            if len(self.spans) < self.span_cap:
                self.spans.append((frame[0], nid, parent[0] if parent else 0, root, t0, t1))
            else:
                self.spans_dropped += 1
        if size_hook is not None:
            size = size_hook(args, result)
            if size is not None:
                agg[BYTES] += size
        return result

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        is_query = name in QUERY_SPANS
        size_hook = SIZE_HOOKS.get(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, is_query, size_hook, fn, args, kwargs)

        return traced

    # -- installing ----------------------------------------------------

    def install(self, package) -> "Tracer":
        """Rebind every function in ``LAYERS`` wherever the package's
        modules (and its top-level namespace) hold a reference to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for short, attrs in LAYERS.items():
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr in attrs:
                name = f"{short}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._patches.append((owner, meth, raw))
                    setattr(owner, meth, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """Per-name aggregates summed over threads. Call between phases,
        while no traced call is in flight."""
        out = {name: [0, 0.0, 0.0, 0, 0] for name in self.names}
        with self._aggs_lock:
            aggs = list(self._aggs)
        for agg in aggs:
            for name, row in zip(self.names, agg):
                acc = out[name]
                for k in range(5):
                    acc[k] += row[k]
        return out

    def write(self, path: Path) -> None:
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez(
            path,
            names=np.array(self.names),
            span_id=spans[:, 0].astype(np.int64),
            name_id=spans[:, 1].astype(np.int32),
            parent_id=spans[:, 2].astype(np.int64),
            trace_id=spans[:, 3].astype(np.int64),
            start_s=spans[:, 4],
            end_s=spans[:, 5],
            dropped=np.int64(self.spans_dropped),
        )


def diff(after: dict, before: dict) -> dict:
    return {name: [a - b for a, b in zip(row, before[name])] for name, row in after.items()}


def per_layer_metrics(whole: dict, measured: dict, wire: dict | None, *, dim: int, precision: int,
                      jobs_speedup: float) -> dict:
    """Per-layer figures of one traced run.

    Times per call are means over the whole run (set-up, measured phase and
    checks), so every layer that runs anywhere in the workload is timed.
    Counts per recovery and shares come from the measured phase alone. The
    wire figures come from the one recovery repeated through ``RemoteOracle``
    against a server process (``wire``), since no measured recovery uses it.
    """

    def per_call(name, field=TOTAL, totals=whole):
        calls = totals[name][CALLS]
        return totals[name][field] / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def m(key):
        return measured[key]

    if wire is None:
        wire = {name: [0, 0.0, 0.0, 0, 0] for name in whole}
    local_auth = ("matcher.MatchingOracle.authenticate_binary", "matcher.MatchingOracle.authenticate_score")
    remote_auth = ("netoracle.RemoteOracle.authenticate_binary", "netoracle.RemoteOracle.authenticate_score")
    recoveries = m("attacks.Attack.reconstruct")[CALLS]
    local_queries = sum(m(n)[CALLS] for n in local_auth)
    auth_calls = sum(whole[n][CALLS] for n in local_auth)
    round_trips = wire["netoracle.RemoteOracle._request"][CALLS]
    seed_searches = m("attacks.find_seed_match")
    return {
        "validation.as_vector_us": (1e6 * per_call("validation.as_vector"), "us"),
        "validation.as_vector_calls_per_query": (ratio(m("validation.as_vector")[CALLS], local_queries), "count"),
        "matcher.auth_us": (1e6 * ratio(sum(whole[n][SELF] for n in local_auth), auth_calls), "us"),
        "matcher.sed_score_us": (1e6 * per_call("matcher.sed_score", SELF), "us"),
        "matcher.auth_calls_per_recovery": (ratio(local_queries, recoveries), "count"),
        "linalg.sphere_center_ms": (1e3 * per_call("linalg.sphere_center"), "ms"),
        "linalg.sphere_center_share": (
            ratio(m("linalg.sphere_center")[TOTAL], m("attacks.Attack.reconstruct")[TOTAL]), "frac"),
        "attacks.seed_search_ms": (1e3 * per_call("attacks.find_seed_match"), "ms"),
        "attacks.seed_queries_per_recovery": (ratio(seed_searches[QUERIES], seed_searches[CALLS]), "count"),
        "attacks.boundary_point_ms": (1e3 * per_call("attacks.boundary_point"), "ms"),
        "attacks.bisection_useful_frac": (
            ratio((dim + 1) * precision * seed_searches[CALLS], m("attacks.boundary_point")[QUERIES]), "frac"),
        "netoracle.encode_us": (1e6 * per_call("netoracle.WireMessage.to_line", totals=wire), "us"),
        "netoracle.decode_us": (1e6 * per_call("netoracle.WireMessage.from_line", totals=wire), "us"),
        "netoracle.round_trip_us": (1e6 * per_call("netoracle.RemoteOracle._request", totals=wire), "us"),
        "netoracle.round_trips_per_recovery": (
            ratio(round_trips, wire["attacks.Attack.reconstruct"][CALLS]), "count"),
        "netoracle.auth_share_of_round_trips": (ratio(sum(wire[n][CALLS] for n in remote_auth), round_trips), "frac"),
        "netoracle.request_bytes": (ratio(wire["netoracle.WireMessage.to_line"][BYTES], round_trips), "B"),
        "synth.breaking_set_ms": (1e3 * per_call("synth.gen_breaking_set"), "ms"),
        "synth.impostor_scores_s": (per_call("synth.impostor_scores"), "s"),
        "evaluation.calibrate_s": (per_call("evaluation.calibrate_for_model"), "s"),
        "evaluation.jobs_speedup": (jobs_speedup, "ratio"),
        "rng.random_unit_vector_us": (1e6 * per_call("rng.random_unit_vector"), "us"),
    }
