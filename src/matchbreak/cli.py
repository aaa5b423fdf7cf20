"""Command-line interface.

Subcommands:

* ``gen-model``: draw a synthetic identity population and save it.
* ``calibrate``: pick a threshold hitting a target false-match rate.
* ``serve``: expose an oracle over TCP from a config file.
* ``attack``: run one reconstruction attack against a local or remote oracle.
* ``experiment``: run a batch grid and write report files.
* ``report``: load, validate, and print a saved report.

Exit codes: 0 on success, 1 on runtime failure, 2 on bad arguments.
Summaries go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .attacks import ATTACKS, make_attack
from .errors import ATTACK_FAILURES, MatchbreakError
from .evaluation import (
    ExperimentConfig,
    format_report,
    load_report,
    passes_system,
    reconstruction_loss,
    report_fingerprint,
    run_experiment,
    write_convergence_csv,
    write_report_csv,
    write_report_json,
)
from .matcher import Metric
from .netoracle import RemoteOracle, server_from_config
from .rng import make_rng
from .synth import (
    build_scenario,
    calibrate_for_model,
    enrollment_template,
    gen_identity_model,
    load_model,
    save_model,
)
from .templates import write_template


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchbreak", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="draw and save a synthetic identity population")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--identities", type=int, default=300)
    p.add_argument("--within-noise", type=float, default=0.1)
    p.add_argument("--concentration", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("calibrate", help="calibrate a threshold for a target false-match rate")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--metric", choices=[m.value for m in Metric], default="sed")
    p.add_argument("--fmr", type=float, required=True)
    p.add_argument("--pairs", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit-norm", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--json", dest="json_out", help="also write the result as JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("serve", help="expose an oracle over TCP")
    p.add_argument("--config", required=True, help="server config JSON file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("attack", help="run one reconstruction attack")
    p.add_argument("--name", required=True, choices=sorted(ATTACKS))
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--target", type=int, required=True, help="identity index to reconstruct")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--metric", choices=[m.value for m in Metric], default=None,
                   help="default: the attack's own metric, sed for attacks that take either")
    p.add_argument("--fmr", type=float, default=0.01)
    p.add_argument("--pairs", type=int, default=100000, help="calibration sample size")
    p.add_argument("--noise", type=float, default=0.0, help="oracle score noise sigma")
    p.add_argument("--query-limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--unit-norm", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--remote", help="host:port of a served oracle (default: in-process)")
    p.add_argument("--breaking-set-size", type=int, default=4000)
    # Attack parameters: each flag's dest is the attack's dataclass field it
    # sets, and an unset flag leaves that field's own default.
    p.add_argument("--budget", type=int, default=None, help="query budget (hill, binary-baseline)")
    p.add_argument("--step-size", type=float, default=None, help="hill-climb step size")
    p.add_argument("--precision", type=int, default=None, help="bisection steps per boundary point")
    p.add_argument("--threshold-estimate", type=float, default=None,
                   help="attacker-side threshold guess (default: the calibrated value)")
    p.add_argument("--max-seed-attempts", type=int, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("experiment", help="run a batch grid and write reports")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--num-targets", type=int, default=None, help="override the config target count")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="load, validate, and print a report")
    p.add_argument("--in", dest="report_path", required=True, help="report JSON file")
    p.add_argument("--csv", dest="csv_out", help="also re-emit the rows as CSV")
    p.set_defaults(func=cmd_report)

    return parser


def cmd_gen_model(args) -> int:
    if args.identities < 2:
        raise UsageError("at least two identities are required (breaking sets need a non-target)")
    if args.dim < 2:
        raise UsageError("dimension must be at least 2")
    model = gen_identity_model(
        args.dim, args.identities,
        within_noise_sigma=args.within_noise,
        center_concentration=args.concentration,
        seed=args.seed,
    )
    save_model(model, args.out)
    print(f"model: dim={model.dim} identities={model.num_identities} "
          f"within_noise={model.within_noise_sigma} concentration={model.center_concentration} "
          f"seed={model.seed} -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    model = load_model(args.model)
    result = calibrate_for_model(
        model, Metric(args.metric), args.fmr,
        pairs=args.pairs, unit_norm=args.unit_norm,
        seed=make_rng(args.seed, "cli-calibration"),
    )
    print(f"threshold={result.threshold.value!r} metric={args.metric} "
          f"achieved_fmr={result.achieved_fmr!r} sample_size={result.sample_size}")
    if args.json_out:
        doc = {
            "threshold": result.threshold.value,
            "metric": args.metric,
            "achieved_fmr": result.achieved_fmr,
            "sample_size": result.sample_size,
            "target_fmr": args.fmr,
        }
        _write_json(args.json_out, doc)
    return 0


def cmd_serve(args) -> int:
    config_path = Path(args.config)
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    server = server_from_config(doc, base_dir=config_path.parent)
    host, port = server.address
    oracle = server.oracle
    print(f"serving {oracle.metric.value}/{oracle.mode.value} oracle "
          f"({len(oracle.enrolled_identities)} identities) on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
    return 0


def _attack_params(args) -> dict:
    """The attack fields set on the command line (``dim`` comes from the model)."""
    fields = (f.name for f in dataclasses.fields(ATTACKS[args.name]) if f.name != "dim")
    return {name: getattr(args, name) for name in fields if getattr(args, name, None) is not None}


def cmd_attack(args) -> int:
    model = load_model(args.model)
    if not 0 <= args.target < model.num_identities:
        raise UsageError(f"target must be in [0, {model.num_identities})")
    attack_cls = ATTACKS[args.name]
    metric = Metric(args.metric or attack_cls.metric or Metric.SED)
    oracle, breaking_set = build_scenario(
        model, metric, attack_cls.mode, [args.target],
        fmr=args.fmr,
        calibration_pairs=args.pairs,
        calibration_seed=make_rng(args.seed, "cli-calibration"),
        noise_sigma=args.noise,
        noise_seed=make_rng(args.seed, "cli-noise"),
        query_limit=args.query_limit,
        unit_norm=args.unit_norm,
        breaking_set_size=args.breaking_set_size,
        breaking_set_seed=make_rng(args.seed, "cli-breaking-set"),
    )
    threshold = oracle.threshold
    truth = enrollment_template(model, args.target, unit_norm=args.unit_norm)
    attack = make_attack(args.name, dim=model.dim, threshold=threshold.value, **_attack_params(args))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "attack": args.name,
        "target": args.target,
        "metric": metric.value,
        "fmr": args.fmr,
        "threshold": threshold.value,
    }
    if args.remote:
        oracle = RemoteOracle(args.remote, metric=metric, mode=attack_cls.mode)
    started = time.perf_counter()
    try:
        result = attack.reconstruct(
            oracle, str(args.target),
            seed=make_rng(args.seed, "cli-attack"),
            breaking_set=breaking_set,
        )
    except ATTACK_FAILURES as exc:
        doc.update(error=str(exc), error_type=type(exc).__name__,
                   queries=exc.queries_used, time_s=time.perf_counter() - started)
        _write_json(out_dir / "result.json", doc)
        print(f"attack failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.remote:
            oracle.close()

    loss = reconstruction_loss(result.recovered.values, truth.values, metric)
    passed = passes_system(result.recovered.values, truth.values, threshold)
    write_template(result.recovered, out_dir / "recovered.tpl")
    doc.update(queries=result.queries_used, time_s=result.wall_time_seconds,
               loss=loss, passed=passed, params=result.params)
    _write_json(out_dir / "result.json", doc)
    print(f"attack={result.attack_name} target={args.target} queries={result.queries_used} "
          f"loss={loss:.6e} passed={str(passed).lower()} time_s={result.wall_time_seconds:.3f}")
    return 0


def cmd_experiment(args) -> int:
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.num_targets is not None:
        doc["num_targets"] = args.num_targets
    config = ExperimentConfig.from_dict(doc)
    report = run_experiment(config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out_dir / "report.csv")
    write_report_json(report, out_dir / "report.json")
    if report.baseline_curves:
        write_convergence_csv(report, out_dir / "convergence.csv")
    print(format_report(report))
    print(f"fingerprint={report_fingerprint(report)}")
    failures = sum(1 for row in report.rows if row.loss is None)
    if failures:
        print(f"{failures}/{len(report.rows)} rows failed", file=sys.stderr)
    if failures == len(report.rows):
        return 1
    return 0


def cmd_report(args) -> int:
    report = load_report(args.report_path)
    print(format_report(report))
    print(f"fingerprint={report_fingerprint(report)}")
    if args.csv_out:
        write_report_csv(report, args.csv_out)
    return 0


def _write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class UsageError(ValueError):
    """Bad command-line arguments beyond what argparse can check itself."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (MatchbreakError, ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
