"""The benchmark workloads and the run loop that measures them.

Every input (model, targets, breaking sets, seeds) derives from the run's
``--seed``. A round is a fixed list of operations on fixed inputs, and a run
repeats whole rounds until its time is up, so the mean query count and the
share of failed operations do not depend on how many rounds fit.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import tracing

import matchbreak as mb
from matchbreak import Metric, OracleMode

SERVER_START_TIMEOUT_S = 120.0
SERVER_STOP_TIMEOUT_S = 10.0

# Runs `matchbreak serve` from the given source tree: argv = [src, "serve", "--config", path].
_SERVE = "import sys; sys.path.insert(0, sys.argv.pop(1)); from matchbreak.cli import main; sys.exit(main(sys.argv[1:]))"

ATTACK_ERRORS = (mb.AttackFailedError, mb.SingularSystemError, mb.LockedOutError)


@dataclass(frozen=True)
class Profile:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` is the smoke test."""

    identities: int = 300
    sigma: float = 0.1
    fmr: float = 0.01
    calibration_pairs: int = 100_000
    precision: int = 20
    breaking_set_size: int = 4000
    hill_budget: int = 4000
    local_dim: int = 512
    local_targets: int = 4
    grid_dim: int = 128
    grid_targets: int = 5
    setup_repeats: int = 3
    fmr_check_pairs: int = 20_000


FULL = Profile()
TINY = Profile(
    identities=40, fmr=0.05, calibration_pairs=4000, breaking_set_size=1000, hill_budget=100,
    local_dim=24, local_targets=2, grid_dim=16, grid_targets=2, setup_repeats=2, fmr_check_pairs=4000,
)


class Op(NamedTuple):
    seconds: float
    queries: int
    failed: bool


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def sphere_solves():
    """Keep the boundary points of every sphere solve the attacks make
    inside the block (checks only; never around a timed recovery)."""
    solve = mb.attacks.sphere_center
    points: list[np.ndarray] = []

    def keeping(pts, *args, **kwargs):
        points.append(np.array(pts, dtype=np.float64, copy=True))
        return solve(pts, *args, **kwargs)

    mb.attacks.sphere_center = keeping
    try:
        yield points
    finally:
        mb.attacks.sphere_center = solve


class WireCase(NamedTuple):
    """A recovery the checks have run in process, to repeat over the wire."""

    model: object
    threshold: float
    target: int
    attack: object
    seed_keys: tuple
    breaking_set: object
    expected: object


def wire_recovery(case: WireCase, seed: int, work_dir: Path, f: checks.Findings, tracer) -> dict:
    """Traced runs: repeat one checked recovery through ``RemoteOracle``
    against ``matchbreak serve`` in a child process (the deployed set-up),
    and return the trace totals of that recovery alone.

    The server enrolls the target only, with the threshold the in-process
    recovery used, so the two must agree bit for bit; its ledger must equal
    what the client sent and what the recovery reports.
    """
    mb.save_model(case.model, work_dir / "model")
    config_path = work_dir / "server.json"
    config_path.write_text(json.dumps({
        "model": "model", "metric": "sed", "mode": "binary", "threshold": case.threshold,
        "identities": [case.target], "host": "127.0.0.1", "port": 0,
    }), encoding="utf-8")
    cpus = os.sched_getaffinity(0)
    server = ServerProcess(SRC, config_path, work_dir / "server.log")
    try:
        address = server.wait_listening()
        # Client and server take turns, one request in flight. Sharing one
        # CPU keeps each turn a local context switch; across two vCPUs every
        # turn is a cross-CPU wake-up, and which of the two the scheduler
        # picks decides the round-trip time.
        cpu = min(cpus)
        os.sched_setaffinity(server.proc.pid, {cpu})
        os.sched_setaffinity(0, {cpu})
        with mb.RemoteOracle(address, metric=Metric.SED, mode=OracleMode.BINARY) as oracle:
            before = tracer.totals()
            result = case.attack.reconstruct(oracle, str(case.target), seed=mb.make_rng(seed, *case.seed_keys),
                                             breaking_set=case.breaking_set)
            wire = tracing.diff(tracer.totals(), before)
            served = oracle.queries
            sent = oracle.sent_queries
    finally:
        os.sched_setaffinity(0, cpus)
        server.stop()
    tag = f"wire recovery of target {case.target}"
    f.expect(served == sent == result.queries_used,
             f"{tag}: server counted {served}, client sent {sent}, recovery used {result.queries_used}")
    f.expect(np.array_equal(result.recovered.values, case.expected.recovered.values)
             and result.queries_used == case.expected.queries_used,
             f"{tag}: differs from the same seeds run in process")
    return wire


class LocalWorkload:
    """``binary-ours`` recoveries of a fixed target list against one
    in-process oracle with every identity enrolled."""

    name = "local-d512"
    min_traced_rounds = 1

    def __init__(self, profile: Profile, seed: int):
        self.p = profile
        self.seed = seed
        self.dim = profile.local_dim
        self.oracle = None

    def setup(self) -> None:
        p = self.p
        self._inputs(p.local_targets)
        self.calibration = mb.calibrate_for_model(
            self.model, Metric.SED, p.fmr, pairs=p.calibration_pairs, seed=mb.make_rng(self.seed, "calibration"))
        self.oracle = mb.MatchingOracle(mb.OracleConfig(
            metric=Metric.SED, mode=OracleMode.BINARY, threshold=self.calibration.threshold))
        for i in range(p.identities):
            self.oracle.enroll(str(i), mb.enrollment_template(self.model, i).values)
        self._attack()

    # -- set-up --------------------------------------------------------

    def _inputs(self, num_targets: int) -> None:
        p = self.p
        self.model = mb.gen_identity_model(self.dim, p.identities, within_noise_sigma=p.sigma, seed=self.seed)
        picks = mb.make_rng(self.seed, "targets").choice(p.identities, size=num_targets, replace=False)
        self.targets = [int(t) for t in sorted(picks)]
        self.breaking_sets = {
            t: mb.gen_breaking_set(self.model, t, p.breaking_set_size,
                                   seed=mb.make_rng(self.seed, "breaking-set", t))
            for t in self.targets
        }
        self.results: dict[int, list] = {t: [] for t in self.targets}

    def _attack(self) -> None:
        self.threshold = self.calibration.threshold
        self.attack = mb.BoundarySearchAttack(self.dim, self.threshold.value, precision=self.p.precision)
        self._recover(self.targets[0])  # the untimed warm-up operation

    def _recover(self, target: int) -> Op:
        started = time.perf_counter()
        try:
            result = self.attack.reconstruct(
                self.oracle, str(target),
                seed=mb.make_rng(self.seed, "attack", target),
                breaking_set=self.breaking_sets[target],
            )
        except ATTACK_ERRORS:
            return Op(time.perf_counter() - started, 0, True)
        elapsed = time.perf_counter() - started
        self.results[target].append(result)
        return Op(elapsed, result.queries_used, False)

    def run_round(self, index: int) -> list[Op]:
        return [self._recover(t) for t in self.targets]

    # -- checks --------------------------------------------------------

    def replay(self, target: int):
        """The recovery of ``target`` again, in process against a fresh
        oracle, with the boundary points of its final sphere solve."""
        oracle = mb.MatchingOracle(mb.OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY, threshold=self.threshold))
        oracle.enroll(str(target), mb.enrollment_template(self.model, target).values)
        with sphere_solves() as solves:
            result = self.attack.reconstruct(oracle, str(target), seed=mb.make_rng(self.seed, "attack", target),
                                             breaking_set=self.breaking_sets[target])
        return result, solves[-1]

    def check(self, f: checks.Findings) -> None:
        p, d, T = self.p, self.dim, self.threshold.value
        centers = checks.model_centers(d, p.identities, self.seed)
        f.expect(np.array_equal(centers, self.model.centers), "model centres differ from their seeded definition")
        fmr = checks.impostor_fmr(centers, p.sigma, T, p.fmr_check_pairs, checks.philox(self.seed, "fmr-check"))
        low, high = checks.fmr_window(p.fmr, p.fmr_check_pairs)
        f.expect(low <= fmr <= high, f"threshold {T} gives FMR {fmr:.4f} on fresh pairs, outside [{low:.4f}, {high:.4f}]")
        for t in self.targets:
            truth = checks.enrolled_truth(centers, p.sigma, self.seed, t)
            f.expect(np.allclose(truth, mb.enrollment_template(self.model, t).values, rtol=0.0, atol=1e-12),
                     f"target {t}: enrolled template differs from its seeded definition")
            members = np.stack([m.values for m in self.breaking_sets[t].templates])
            first = checks.first_within(members, truth, T)
            runs = self.results[t]
            f.expect(bool(runs), f"target {t}: no successful recovery")
            if not runs:
                continue
            ref, points = self.replay(t)
            f.expect(np.array_equal(ref.recovered.values, runs[0].recovered.values) and ref.queries_used == runs[0].queries_used,
                     f"target {t}: the measured recovery differs from the same seeds run in process")
            checks.check_draw(f, f"target {t}", points, ref.recovered.values, truth, T, p.precision)
            for r in runs:
                x = r.params
                expected = x["seed_attempts"] + p.precision * (d + 1 + x["boundary_redraws"] + x["solve_resamples"])
                f.expect(r.queries_used == expected,
                         f"target {t}: {r.queries_used} queries, ledger formula gives {expected}")
                f.expect(first is not None and x["seed_attempts"] == first + 1,
                         f"target {t}: {x['seed_attempts']} seed attempts, first member within T is #{first}")
                f.expect(np.array_equal(r.recovered.values, runs[0].recovered.values) and r.queries_used == runs[0].queries_used,
                         f"target {t}: repeated recovery on the same inputs differs")

    def wire_case(self) -> WireCase | None:
        t = self.targets[0]
        if not self.results[t]:
            return None
        return WireCase(self.model, self.threshold.value, t, self.attack, ("attack", t),
                        self.breaking_sets[t], self.results[t][0])

    def jobs_speedup(self) -> float:
        return 0.0  # no thread pool on this workload

    def close(self) -> None:
        self.oracle = None


class ServerProcess:
    """``matchbreak serve`` in a child process; the port is read from the
    line the server prints once it is listening."""

    def __init__(self, src: Path, config_path: Path, log_path: Path):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE, str(src), "serve", "--config", str(config_path)],
            stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
        )

    def wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(timeout=left):
                    raise RuntimeError("server did not report its port in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"server exited before listening (code {self.proc.poll()})")
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode("utf-8")
        host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
        return host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class GridWorkload:
    """``run_experiment`` over four attacks with the ``--jobs`` pool."""

    name = "grid-d128"
    min_traced_rounds = 2  # one at jobs=nproc, one at jobs=1
    attack_names = ("score-sed", "hill", "binary-baseline", "binary-ours")

    def __init__(self, profile: Profile, seed: int):
        self.p = profile
        self.seed = seed
        self.dim = profile.grid_dim
        self.jobs = nproc()
        self.walls: dict[int, list[float]] = {}
        self.fingerprints: list[str] = []
        self.trace = False
        self.wire: WireCase | None = None

    def setup(self) -> None:
        p = self.p
        attacks = tuple({"name": n, "budget": p.hill_budget} if n == "hill" else {"name": n}
                        for n in self.attack_names)
        self.config = mb.ExperimentConfig(
            dim=self.dim, num_identities=p.identities, within_noise_sigma=p.sigma, metric="sed",
            fmr_targets=(p.fmr,), num_targets=p.grid_targets, attacks=attacks,
            calibration_pairs=p.calibration_pairs, breaking_set_size=p.breaking_set_size,
            model_seed=self.seed, seed=self.seed,
        )
        self._grid(self.jobs)  # the untimed warm-up operation

    def _grid(self, jobs: int):
        started = time.perf_counter()
        report = mb.run_experiment(self.config, jobs=jobs)
        self.walls.setdefault(jobs, []).append(time.perf_counter() - started)
        self.fingerprints.append(mb.report_fingerprint(report))
        self.report = report
        return report

    def run_round(self, index: int) -> list[Op]:
        # traced runs alternate the pool size to measure what the pool gains
        jobs = 1 if self.trace and index % 2 else self.jobs
        report = self._grid(jobs)
        return [Op(row.time_s, row.queries, row.loss is None) for row in report.rows]

    def jobs_speedup(self) -> float:
        serial = self.walls.get(1, [])
        if self.jobs == 1 or not serial:
            return 1.0 if self.jobs == 1 else 0.0
        return statistics.median(serial) / statistics.median(self.walls[self.jobs])

    def check(self, f: checks.Findings) -> None:
        p, d = self.p, self.dim
        f.expect(len(set(self.fingerprints)) == 1,
                 f"{len(set(self.fingerprints))} distinct report fingerprints over {len(self.fingerprints)} grids")
        centers = checks.model_centers(d, p.identities, self.seed)
        T = checks.impostor_threshold(centers, p.sigma, p.calibration_pairs, p.fmr,
                                      checks.philox(self.seed, "calibration", 0))
        model = mb.gen_identity_model(d, p.identities, within_noise_sigma=p.sigma, seed=self.seed)
        curves = {c.identity: c for c in self.report.baseline_curves}
        rows = self.report.rows
        f.expect(len(rows) == p.grid_targets * len(self.attack_names), f"grid has {len(rows)} rows")
        for row in rows:
            ti, ai = int(row.identity), self.attack_names.index(row.attack)
            truth = checks.enrolled_truth(centers, p.sigma, self.seed, ti)
            tag = f"{row.attack} target {ti}"
            f.expect(row.error is None, f"{tag}: failed with {row.error}")
            if row.error is not None:
                continue
            if row.attack == "score-sed":
                f.expect(row.queries == d + 1, f"{tag}: {row.queries} queries, expected {d + 1}")
                f.expect(row.loss < 1e-10, f"{tag}: loss {row.loss:.3e} not below 1e-10")
            elif row.attack == "hill":
                f.expect(row.queries == p.hill_budget + 1, f"{tag}: {row.queries} queries, expected {p.hill_budget + 1}")
            else:
                members = checks.breaking_set(centers, p.sigma, ti, p.breaking_set_size,
                                              checks.philox(self.seed, "breaking-set", 0, ti, ai))
                hits = np.flatnonzero(checks.sed(members, truth) <= T)
                if row.attack == "binary-baseline":
                    accepted = [q - 1 for q, _, _ in curves[row.identity].points]
                    f.expect(accepted == hits.tolist(), f"{tag}: accepted members differ from those within T")
                    mean_loss = float(checks.sed(members[hits].mean(axis=0), truth)) if hits.size else None
                    f.expect(mean_loss is not None and np.isclose(row.loss, mean_loss, rtol=1e-9, atol=1e-15),
                             f"{tag}: loss {row.loss} is not that of the mean accepted member ({mean_loss})")
                    f.expect(row.queries == p.breaking_set_size, f"{tag}: {row.queries} queries")
                else:
                    seed_attempts = int(hits[0]) + 1 if hits.size else 0
                    bisection = row.queries - seed_attempts
                    f.expect(hits.size > 0 and bisection % p.precision == 0 and bisection // p.precision >= d + 1,
                             f"{tag}: {row.queries} queries is not {seed_attempts} seed attempts + P x (d+1+k)")
                    result, points = self.replay(model, ti, ai, T)
                    if self.wire is None:
                        self.wire = WireCase(model, T, ti, self.attack_for(T), ("attack", 0, ti, ai),
                                             self.breaking_set_for(model, ti, ai), result)
                    loss = checks.check_draw(f, tag, points, result.recovered.values, truth, T, p.precision)
                    f.expect(np.isclose(loss, row.loss, rtol=1e-9, atol=0.0) and result.queries_used == row.queries,
                             f"{tag}: the row (loss {row.loss:.6e}, {row.queries} queries) differs from the same "
                             f"seeds run alone (loss {loss:.6e}, {result.queries_used} queries)")
                    f.expect(row.passed, f"{tag}: the row does not pass")

    def replay(self, model, ti: int, ai: int, threshold: float):
        """A ``binary-ours`` row again, outside the grid, on the streams
        ``run_experiment`` gives it, with the boundary points of its final
        sphere solve."""
        oracle = mb.MatchingOracle(mb.OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY,
                                                   threshold=mb.Threshold(threshold, Metric.SED)))
        oracle.enroll(str(ti), mb.enrollment_template(model, ti).values)
        with sphere_solves() as solves:
            result = self.attack_for(threshold).reconstruct(
                oracle, str(ti), seed=mb.make_rng(self.seed, "attack", 0, ti, ai),
                breaking_set=self.breaking_set_for(model, ti, ai))
        return result, solves[-1]

    def attack_for(self, threshold: float):
        return mb.BoundarySearchAttack(self.dim, threshold, precision=self.p.precision)

    def breaking_set_for(self, model, ti: int, ai: int):
        return mb.gen_breaking_set(model, ti, self.p.breaking_set_size,
                                   seed=mb.make_rng(self.seed, "breaking-set", 0, ti, ai))

    def wire_case(self) -> WireCase:
        return self.wire

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (LocalWorkload, GridWorkload)}

SRC = Path(mb.__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


TAIL_MIN_SAMPLES = 40


def tail(seconds: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten recoveries beyond it, and
    its value. Needs ``TAIL_MIN_SAMPLES`` recoveries."""
    n = len(seconds)
    ordered = sorted(seconds)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_workload(name: str, seed: int, seconds: float, trace: bool, profile: Profile,
                 out_dir: Path, log=print) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=out_dir))
    tracer = tracing.Tracer().install(mb) if trace else None
    wl = WORKLOADS[name](profile, seed)
    wl.trace = trace
    try:
        setup_s = []
        for i in range(profile.setup_repeats):
            if i:
                wl.close()
            started = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - started)
        before = tracer.totals() if tracer else None
        ops: list[Op] = []
        rounds = 0
        started = time.perf_counter()
        # Start another round only if one more of average length still fits,
        # after enough rounds for the tail (untraced) or for every pool size
        # (traced).
        min_rounds = wl.min_traced_rounds if trace else 1
        min_ops = 0 if trace else TAIL_MIN_SAMPLES
        elapsed = 0.0
        while rounds < min_rounds or len(ops) < min_ops or elapsed * (rounds + 1) / rounds <= seconds:
            ops.extend(wl.run_round(rounds))
            rounds += 1
            elapsed = time.perf_counter() - started
        measured_s = elapsed
        during = tracing.diff(tracer.totals(), before) if tracer else None
        findings = checks.Findings()
        wl.check(findings)
        wire = None
        if tracer:
            case = wl.wire_case()
            findings.expect(case is not None, "no checked recovery to repeat over the wire")
            if case is not None:
                wire = wire_recovery(case, seed, work_dir, findings, tracer)
    finally:
        wl.close()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    done = [op for op in ops if not op.failed]
    times = [op.seconds for op in done]
    log(f"{name} seed={seed} trace={int(trace)}: setup {', '.join(f'{s:.3f}' for s in setup_s)} s; "
        f"{rounds} rounds, {len(ops)} operations ({len(ops) - len(done)} failed) in {measured_s:.2f} s")
    log(f"checks: {findings.passed} passed, {len(findings.failures)} failed")
    for message in findings.failures:
        log(f"CHECK FAILED: {message}")
    p50 = statistics.median(times) if times else 0.0
    if tracer:
        trace_path = out_dir / f"trace-{name}-seed{seed}.npz"
        tracer.write(trace_path)
        log(f"traced recovery_s_p50 {p50:.6f} s; {len(tracer.spans)} spans written to {trace_path}"
            f" ({tracer.spans_dropped} past the cap not stored)")
        metrics = tracing.per_layer_metrics(
            tracer.totals(), during, wire, dim=wl.dim, precision=profile.precision,
            jobs_speedup=wl.jobs_speedup())
    else:
        percentile, tail_s = tail(times) if len(times) >= TAIL_MIN_SAMPLES else (0.0, 0.0)
        log(f"recovery_s_tail: p{percentile:.1f} = {tail_s:.6f} s over {len(times)} recoveries")
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "recoveries_per_s": (len(done) / measured_s, "1/s"),
            "recovery_s_p50": (p50, "s"),
            "recovery_s_tail": (tail_s, "s"),
            "queries_per_recovery": (sum(op.queries for op in done) / len(done) if done else 0.0, "count"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return {
        "correct": findings.ok and bool(done),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
