"""Batch front-end: simulate, enumerate, verify and scaling subcommands.

Every command is a deterministic function of its flags and seed; repeated
invocations write byte-identical files.  Exit codes: 0 success, 1 usage or
configuration error, or a run too large for memory, 2 invariant violation,
3 I/O error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .dynamics import (
    RNG_ALGORITHM,
    ChainState,
    RandomStream,
    parse_rule,
    run,
    trajectory_lines,
)
from .limits import enumerate_limits, rotation_classes, summary_counts
from .observers import (
    STABILITY_WINDOW,
    LevelLog,
    ParityGapSeries,
    detect_convergence,
    pattern_str,
)
from .ring import Neighborhood, check_ring_size
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


# The type a config-file value must have, by key, and how a usage error names it.
# No other key is accepted; --m is a required flag, so M is never read from a file.
_CONFIG_TYPES = {
    **dict.fromkeys(
        ("steps", "replicas", "seed", "stream", "sample_every", "trials"), (int, "an integer")
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
        return config_file[key]
    if key == "seed":
        env = os.environ.get("NQ_SEED")
        if env is None:
            return 0
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"NQ_SEED must be an integer, got {env!r}") from None
    return DEFAULTS.get(key)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config file {path} has an unknown key {key!r}")
        types, expected = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    return data


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict, path: str | None) -> None:
    # json.dump writes the encoder's chunks as they come; json.dumps would
    # hold every chunk and the joined text, about 8 times the file's size.
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parse_init(text: str, m: int) -> tuple[int, ...]:
    if text == "empty":
        return (0,) * m
    try:
        counts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--init must be 'empty' or M comma-separated integers, got {text!r}") from None
    if len(counts) != m:
        raise ValueError(f"--init lists {len(counts)} counts for m={m} sites")
    return counts


# Requests whose estimated footprint (`_simulate_bytes`) exceeds this are refused.
MAX_SIMULATE_BYTES = 2**32

# `_simulate_bytes` per site: the chain's lists, the observers and the summary
# JSON built at the end (372); per kept record, the xi, u and v tuples of one
# pointer per site (24) and the record's own objects and fresh ints (700).
# Measured peaks: 401 MiB at M=1e6 and --steps 2 (two records), and 32 MiB
# per 1e5 steps of a trajectory at M=5 (about 0.5 records per step).  The 372
# was measured while the summary's JSON text was built whole; written in
# chunks, the tracemalloc peak at M=1e5 and --steps 2 fell from 34.3 to
# 12.7 MiB, so it is now conservative.
_SITE_BYTES = 372
_RECORD_SITE_BYTES = 24
_RECORD_BYTES = 700


def _simulate_bytes(m: int, steps: int, sample_every: int, kind: Neighborhood,
                    trajectory: bool, empty_start: bool) -> tuple[int, int]:
    """Estimated peak bytes of `simulate`, and the records `run` keeps for it.

    `run` keeps the initial and final records and one per `sample_every`
    steps; for a trajectory it also keeps every level-opening step.  Each
    opening raises the minimum potential, and the potentials gain
    `kind.window` in total per step, so from empty at most window * steps / M
    levels open; from another start the bound is one per step.
    """
    kept = 2 + steps // sample_every
    if trajectory:
        kept += kind.window * steps // m if empty_start else steps
    return m * _SITE_BYTES + kept * (m * _RECORD_SITE_BYTES + _RECORD_BYTES), kept


def cmd_simulate(args, config_file) -> int:
    keys = ("neighborhood", "rule", "beta", "steps", "seed", "stream", "init", "sample_every")
    config = {"m": args.m, **{key: _resolve(args, key, config_file) for key in keys}}
    if config["rule"] != "softmax" and config["beta"] is not None:
        raise ValueError("--beta applies only to the softmax rule")
    m = config["m"]
    kind = Neighborhood.parse(config["neighborhood"])
    rule = parse_rule(config["rule"], config["beta"])
    check_ring_size(m, kind)
    steps, sample_every = config["steps"], config["sample_every"]
    if steps >= 0 and sample_every >= 1:  # else `run` refuses them
        need, kept = _simulate_bytes(m, steps, sample_every, kind, bool(args.trajectory),
                                     config["init"] == "empty")
        if need > MAX_SIMULATE_BYTES:
            raise ValueError(
                f"M={m} and {steps} steps keep up to {kept} records and need about "
                f"{need / 2**20:.0f} MiB, above the {MAX_SIMULATE_BYTES / 2**20:.0f} MiB limit"
            )
    init = _parse_init(config["init"], m)

    state = ChainState.from_occupancy(init, kind)
    level_log = LevelLog(kind)
    observers = [level_log]
    renewals = None
    if kind is Neighborhood.ASYMMETRIC:
        renewals = ParityGapSeries(m)
        observers.append(renewals)

    result = run(
        state,
        rule,
        config["steps"],
        RandomStream(config["seed"], config["stream"]),
        observers=observers,
        sample_every=config["sample_every"],
        include_level_steps=bool(args.trajectory),  # level records reach only the trajectory
    )

    # A symmetric chain is matched against the limit set only once it is stable
    # (the enumeration grows fast with M), and before any file is written.
    matching = kind is Neighborhood.SYMMETRIC and level_log.run_length >= STABILITY_WINDOW
    limits = enumerate_limits(m) if matching else None

    if args.trajectory:
        with open(args.trajectory, "w") as fh:
            fh.writelines(trajectory_lines(result.records))

    verdict = detect_convergence(level_log, result.final.xi, result.final.t, limits)
    final = result.final
    summary = {
        "config": {
            "command": "simulate",
            **{k: v for k, v in config.items() if v is not None},
            "rng": RNG_ALGORITHM,
        },
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
    if renewals is not None:
        report = renewals.report()
        if m % 2 == 0:
            summary["parity_gap"] = report
        else:  # the parity gap is defined at even M
            summary["renewals"] = {"renewals": report["renewals"]}
    _dump_json(summary, args.out)
    return EXIT_OK


def cmd_enumerate(args, config_file) -> int:
    m = args.m
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


def cmd_verify(args, config_file) -> int:
    suite = args.suite
    m = args.m
    steps = _resolve(args, "steps", config_file)
    replicas = _resolve(args, "replicas", config_file)
    seed = _resolve(args, "seed", config_file)
    trials = _resolve(args, "trials", config_file)
    kind = None
    if suite == "appendix":
        kind = Neighborhood.parse(_resolve(args, "neighborhood", config_file))
    elif args.neighborhood is not None:
        raise ValueError("--neighborhood applies only to the appendix suite")
    for key in ("steps", "replicas") if suite == "algebra" else ("trials",):
        if getattr(args, key) is not None:
            raise ValueError(f"--{key} does not apply to the {suite} suite")
    report = run_suite(suite, m, steps=steps, replicas=replicas, seed=seed, kind=kind, trials=trials)
    _dump_json(report.to_json_dict(), args.out)
    if not report.passed:
        first = next(inv for inv in report.invariants if not inv.passed)
        print(f"verify: suite {suite} failed at invariant {first.id}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_scaling(args, config_file) -> int:
    m = args.m
    steps = _resolve(args, "steps", config_file)
    replicas = _resolve(args, "replicas", config_file)
    seed = _resolve(args, "seed", config_file)
    if m % 2 != 0:
        raise ValueError(
            f"scaling needs an even M (the parity gap vanishes identically for odd M), got {m}"
        )
    if steps < 1024:
        raise ValueError("scaling needs at least 2^10 steps")
    checkpoints = []
    t = 1024
    while t <= steps:
        checkpoints.append(t)
        t *= 2
    estimate, ensemble = estimate_sigma(m, replicas, checkpoints, seed)
    # after the run, so that a refused request prints only its error
    if replicas < MIN_REPLICAS_FOR_KS:
        print(
            f"scaling: warning: {replicas} replicas is below the minimum "
            f"{MIN_REPLICAS_FOR_KS} for the normality check; KS skipped",
            file=sys.stderr,
        )
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

    def add_common(p, *, replicas=False, steps=True, seed=True):
        p.add_argument("--m", type=int, required=True, help="number of ring sites")
        if seed:
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
    add_common(p_enum, steps=False, seed=False)
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
                       help="appendix suite only (default: sym)")
    p_ver.add_argument("--trials", type=int, default=None,
                       help="algebra suite only: cases per battery (default: 1000)")
    p_ver.set_defaults(func=cmd_verify)

    p_sc = sub.add_parser("scaling", help="parity-gap diffusivity diagnostics (asym, even M)")
    add_common(p_sc, replicas=True)
    p_sc.set_defaults(func=cmd_scaling)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built by the first `main` call and reused by the later ones."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
