"""Batch front-end: simulate, enumerate, verify and scaling subcommands.

Every command is a deterministic function of its flags and seed; repeated
invocations write byte-identical files.  Exit codes: 0 success, 1 usage or
configuration error or out of memory, 2 invariant violation, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from .dynamics import (
    RNG_ALGORITHM,
    ChainState,
    RandomStream,
    parse_rule,
    run,
)
from .limits import enumerate_limits, rotation_classes, summary_counts
from .observers import (
    LevelLog,
    ParityGapSeries,
    RenewalCounter,
    detect_convergence,
    pattern_str,
)
from .ring import Neighborhood
from .scaling import MIN_REPLICAS_FOR_KS, estimate_sigma, zeta_sign_test, zeta_tail_check
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_IO = 3

DEFAULTS = {
    "steps": 10000,
    "replicas": 50,
    "sample_every": 1000,
    "rule": "min",
    "neighborhood": "sym",
    "init": "empty",
    "stream": 0,
    "trials": 1000,
    "format": "table",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class ExperimentConfig:
    command: str
    m: int
    neighborhood: str | None = None
    rule: str | None = None
    beta: float | None = None
    steps: int | None = None
    replicas: int | None = None
    seed: int = 0
    stream: int = 0
    init: str | None = None
    sample_every: int | None = None
    suite: str | None = None
    trials: int | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


# The type a config-file value must have, by key, and how a usage error names it.
_CONFIG_TYPES = {
    **dict.fromkeys(
        ("m", "steps", "replicas", "seed", "stream", "sample_every", "trials"), (int, "an integer")
    ),
    "beta": ((int, float), "a number"),
    **dict.fromkeys(("rule", "neighborhood", "init", "format"), (str, "a string")),
}


def _resolve(args: argparse.Namespace, key: str, config_file: dict):
    """flag > config file > environment (seed only) > built-in default"""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config_file:
        value = config_file[key]
        types, expected = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
        return value
    if key == "seed":
        env = os.environ.get("NQ_SEED")
        if env is not None:
            return int(env)
        return 0
    return DEFAULTS.get(key)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_init(text: str, m: int) -> tuple[int, ...]:
    if text == "empty":
        return (0,) * m
    counts = tuple(int(x) for x in text.split(","))
    if len(counts) != m:
        raise ValueError(f"--init lists {len(counts)} counts for m={m} sites")
    return counts


def cmd_simulate(args, config_file) -> int:
    config = ExperimentConfig(
        command="simulate",
        m=_resolve(args, "m", config_file),
        neighborhood=_resolve(args, "neighborhood", config_file),
        rule=_resolve(args, "rule", config_file),
        beta=_resolve(args, "beta", config_file),
        steps=_resolve(args, "steps", config_file),
        seed=_resolve(args, "seed", config_file),
        stream=_resolve(args, "stream", config_file),
        init=_resolve(args, "init", config_file),
        sample_every=_resolve(args, "sample_every", config_file),
    )
    if config.rule != "softmax" and config.beta is not None:
        raise ValueError("--beta applies only to the softmax rule")
    m = config.m
    kind = Neighborhood.parse(config.neighborhood)
    rule = parse_rule(config.rule, config.beta)
    init = _parse_init(config.init, m)

    state = ChainState.from_occupancy(init, kind)
    level_log = LevelLog(kind)
    observers = [level_log]
    parity = None
    renewals = None
    if kind is Neighborhood.ASYMMETRIC:
        if m % 2 == 0:
            parity = ParityGapSeries(m)
            observers.append(parity)
        else:
            renewals = RenewalCounter()
            observers.append(renewals)

    result = run(
        state,
        rule,
        config.steps,
        RandomStream(config.seed, config.stream),
        observers=observers,
        sample_every=config.sample_every,
        include_level_steps=True,
    )

    if args.trajectory:
        with open(args.trajectory, "w") as fh:
            for rec in result.records:
                fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")

    limits = enumerate_limits(m) if kind is Neighborhood.SYMMETRIC else None
    verdict = detect_convergence(level_log, result.final.xi, result.final.t, limits)
    final = result.final
    summary = {
        "config": {**config.to_json_dict(), "rng": RNG_ALGORITHM},
        "final": {
            "t": final.t,
            "xi": list(final.xi),
            "u": list(final.u),
            "m": final.min_potential,
        },
        "fractions": [x / final.t if final.t else 0.0 for x in final.xi],
        "levels": level_log.report(),
        "verdict": None
        if verdict is None
        else {
            "mode": verdict.mode,
            "stable": verdict.stable,
            "stable_signature": pattern_str(verdict.stable_signature)
            if verdict.stable_signature
            else None,
            "stability_started_level": verdict.stability_started_level,
            "matched": verdict.matched.label if verdict.matched else None,
            "matched_distance": verdict.matched_distance,
        },
    }
    if parity is not None:
        summary["parity_gap"] = parity.report()
    if renewals is not None:
        summary["renewals"] = renewals.report()
    _dump_json(summary, args.out)
    return EXIT_OK


def cmd_enumerate(args, config_file) -> int:
    m = _resolve(args, "m", config_file)
    fmt = _resolve(args, "format", config_file)
    configs = enumerate_limits(m)
    shown = [c for c in configs if c.achievable_from_empty] if args.from_empty else list(configs)
    counts = summary_counts(configs)

    if args.counts:
        payload = {"m": m, **counts}
        if fmt == "json":
            _dump_json(payload, args.out)
        else:
            lines = [
                f"M = {m}",
                f"sequences total        {counts['all_total']}",
                f"sequences from empty   {counts['all_from_empty']}",
                f"classes total          {counts['classes_total']}",
                f"classes from empty     {counts['classes_from_empty']}",
            ]
            _write_text("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    if args.up_to_rotation:
        classes = rotation_classes(shown)
        rows = [
            {
                "x": [str(v) for v in k.representative.x],
                "alpha": str(k.representative.alpha),
                "from_empty": k.representative.achievable_from_empty,
                "orbit_size": k.orbit_size,
            }
            for k in classes
        ]
    else:
        rows = [
            {
                "x": [str(v) for v in c.x],
                "alpha": str(c.alpha),
                "from_empty": c.achievable_from_empty,
            }
            for c in shown
        ]

    if fmt == "json":
        _dump_json({"m": m, "configurations": rows, "counts": counts}, args.out)
    elif fmt == "csv":
        header = [f"x{i+1}" for i in range(m)] + ["alpha", "from_empty"]
        if args.up_to_rotation:
            header.append("orbit_size")
        lines = [",".join(header)]
        for row in rows:
            cells = row["x"] + [row["alpha"], str(row["from_empty"]).lower()]
            if args.up_to_rotation:
                cells.append(str(row["orbit_size"]))
            lines.append(",".join(cells))
        _write_text("\n".join(lines) + "\n", args.out)
    else:
        width = max((len(v) for row in rows for v in row["x"]), default=1)
        lines = [f"M = {m}   ({len(rows)} listed)"]
        for row in rows:
            vec = " ".join(v.rjust(width) for v in row["x"])
            mark = " " if row["from_empty"] else "*"
            orbit = f"  orbit {row['orbit_size']}" if args.up_to_rotation else ""
            lines.append(f"  ({vec}){mark}{orbit}")
        lines.append(
            "totals: %d sequences (%d from empty), %d classes (%d from empty)"
            % (
                counts["all_total"],
                counts["all_from_empty"],
                counts["classes_total"],
                counts["classes_from_empty"],
            )
        )
        _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args, config_file) -> int:
    suite = args.suite
    m = _resolve(args, "m", config_file)
    steps = _resolve(args, "steps", config_file)
    replicas = _resolve(args, "replicas", config_file)
    seed = _resolve(args, "seed", config_file)
    trials = _resolve(args, "trials", config_file)
    kind = None
    if args.neighborhood is not None or suite == "appendix":
        kind = Neighborhood.parse(_resolve(args, "neighborhood", config_file))
    report = run_suite(suite, m, steps=steps, replicas=replicas, seed=seed, kind=kind, trials=trials)
    _dump_json(report.to_json_dict(), args.out)
    if not report.passed:
        first = next(inv for inv in report.invariants if not inv.passed)
        print(f"verify: suite {suite} failed at invariant {first.id}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_scaling(args, config_file) -> int:
    m = _resolve(args, "m", config_file)
    steps = _resolve(args, "steps", config_file)
    replicas = _resolve(args, "replicas", config_file)
    seed = _resolve(args, "seed", config_file)
    if m % 2 != 0:
        raise ValueError(
            f"scaling needs an even M (the parity gap vanishes identically for odd M), got {m}"
        )
    if steps < 1024:
        raise ValueError("scaling needs at least 2^10 steps")
    if replicas < MIN_REPLICAS_FOR_KS:
        print(
            f"scaling: warning: {replicas} replicas is below the minimum "
            f"{MIN_REPLICAS_FOR_KS} for the normality check; KS skipped",
            file=sys.stderr,
        )
    checkpoints = []
    t = 1024
    while t <= steps:
        checkpoints.append(t)
        t *= 2
    estimate, ensemble = estimate_sigma(m, replicas, checkpoints, seed)
    sign_p = zeta_sign_test(ensemble.zeta_positive, ensemble.zeta_negative)
    tail_ok, tail_ratios = zeta_tail_check(ensemble.zeta_tail.tolist())
    payload = {
        "config": {"m": m, "steps": steps, "replicas": replicas, "seed": seed,
                   "checkpoints": checkpoints},
        **estimate.to_json_dict(),
        "zeta": {
            "positive": ensemble.zeta_positive,
            "negative": ensemble.zeta_negative,
            "zero": ensemble.zeta_zero,
            "sign_test_p": sign_p,
            "tail_counts": ensemble.zeta_tail.tolist(),
            "tail_geometric": tail_ok,
            "tail_ratios": tail_ratios,
        },
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="nqsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, replicas=False, steps=True):
        p.add_argument("--m", type=int, required=True, help="number of ring sites")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: NQ_SEED env var, else 0)")
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if steps:
            p.add_argument("--steps", type=int, default=None)
        if replicas:
            p.add_argument("--replicas", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="run one chain and write trajectory + summary")
    add_common(p_sim)
    p_sim.add_argument("--neighborhood", choices=["asym", "sym"], default=None)
    p_sim.add_argument("--rule", choices=["min", "softmax", "max"], default=None)
    p_sim.add_argument("--beta", type=float, default=None, help="softmax temperature")
    p_sim.add_argument("--init", default=None, help="'empty' or comma-separated counts")
    p_sim.add_argument("--stream", type=int, default=None, help="RNG stream id")
    p_sim.add_argument("--sample-every", dest="sample_every", type=int, default=None)
    p_sim.add_argument("--trajectory", default=None, help="JSON-lines trajectory path")
    p_sim.set_defaults(func=cmd_simulate)

    p_enum = sub.add_parser("enumerate", help="list limiting configurations")
    add_common(p_enum, steps=False)
    p_enum.add_argument("--counts", action="store_true", help="print the four summary counts")
    p_enum.add_argument("--from-empty", dest="from_empty", action="store_true",
                        help="restrict to configurations reachable from the empty start")
    p_enum.add_argument("--up-to-rotation", dest="up_to_rotation", action="store_true",
                        help="list rotation-class representatives with orbit sizes")
    p_enum.add_argument("--format", choices=["json", "csv", "table"], default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_ver = sub.add_parser("verify", help="run an invariant suite across replicas")
    add_common(p_ver, replicas=True)
    p_ver.add_argument("--suite", choices=list(SUITE_NAMES), required=True)
    p_ver.add_argument("--neighborhood", choices=["asym", "sym"], default=None,
                       help="required for the appendix suite")
    p_ver.add_argument("--trials", type=int, default=None, help="algebra suite batch size")
    p_ver.set_defaults(func=cmd_verify)

    p_sc = sub.add_parser("scaling", help="parity-gap diffusivity diagnostics (asym, even M)")
    add_common(p_sc, replicas=True)
    p_sc.set_defaults(func=cmd_scaling)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config_file = _load_config_file(args.config)
        return args.func(args, config_file)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"nqsim {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"nqsim {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"nqsim {args.command}: error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
