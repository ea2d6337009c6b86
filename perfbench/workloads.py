"""The four benchmark workloads: the jobs each one runs and how their outputs are checked.

Every job is either an `nqsim` command line (run in-process through
`nqsim.cli.main`, outputs written to a scratch directory) or a call of the
3^M brute-force oracle.  The jobs are a function of the workload seed only;
the program receives nothing but the generated flags.  Why each workload
exists and which layer metrics it is meant to move is in README.md.

This module imports nothing from nqsim, so building the inputs is cheap and
can be timed as part of set-up.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

# Limiting-configuration counts from the paper's tables.
# m: (sequences total, sequences from empty)
TABLE_SMALL = {4: (2, 2), 5: (10, 5), 6: (2, 2), 7: (14, 7), 8: (18, 2), 9: (18, 9), 10: (42, 7)}
# m: (classes from empty, classes total, sequences from empty, sequences total)
TABLE_LARGE = {
    11: (1, 4, 11, 44),
    12: (2, 7, 14, 74),
    13: (1, 8, 13, 104),
    14: (3, 12, 23, 142),
    15: (2, 16, 20, 220),
    16: (3, 20, 34, 290),
}

# Exact parity-gap diffusivities of the asymmetric min rule: 1/sqrt(24) at
# M=4, and the Markov-chain value computed for M=8.
SIGMA_REFERENCE = {4: 1 / math.sqrt(24), 8: 0.08667}
# sigma_hat comes from a variance fit dominated by the last checkpoint; its
# relative standard error is about 1/sqrt(2(R-1)).  Five standard errors make
# a false failure rarer than one in a million runs.
SIGMA_Z = 5.0


def sigma_tolerance(replicas: int) -> float:
    """Allowed relative deviation of sigma_hat from the exact value at R replicas."""
    return SIGMA_Z / math.sqrt(2 * (replicas - 1))


@dataclass(frozen=True)
class Shape:
    """An ensemble configuration: neighbourhood, rule, ring size and replicas."""

    kind: str  # "sym" or "asym"
    rule: str  # "min" or "max"
    m: int
    replicas: int


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...] = ()  # CLI flags, without --out/--trajectory
    check: str = "verify"  # verify | scaling | counts | simulate | oracle
    m: int = 0
    replica_steps: int = 0  # replica-steps simulated; 0 for non-simulation jobs
    trajectory: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple[Job, ...]
    streams: tuple[Shape, ...]  # shapes whose replicas must match single chains
    probe: Shape  # shape of the differential and Philox probes
    probe_steps: int


NAMES = ("sym-levels", "asym-diffusion", "max-freeze", "chain-exact")

# Job sizes, full and the tiny size of the smoke test.  "sym" rows are
# (M, replicas, steps, sub-seeds).  Symmetric M=10 is left out: its final-half
# flag checks need ~1e5 steps (about 1% of replicas are still flagged after
# 5000 steps), so M=9 stands for the large ring.  At R=50 the cost of level
# tracking depends on the seed by up to 40% (how the replicas' level openings
# fall into common lock-steps), so those sizes run several sub-seeds, which
# averages that out while keeping the R=50 shape.
SIZES = {
    "full": {
        "sym": ((5, 500, 2000, 1), (7, 50, 1000, 4), (9, 50, 1000, 4)),
        "scaling": ((4, 1000, 4096), (8, 1000, 4096)),
        "appendix": (("sym", 6, 500, 4000), ("asym", 5, 500, 4000)),
        "simulate": (("sym", 5, 10000), ("asym", 6, 10000)),
        "enumerate": range(4, 17),
        "oracle": range(4, 13),
        "algebra": (7, 1000),
        "probe_steps": {"ensemble": 1024, "chain": 4096},
    },
    "tiny": {
        "sym": ((5, 20, 600, 1), (7, 10, 600, 2), (9, 10, 600, 2)),
        "scaling": ((4, 100, 2048), (8, 100, 2048)),
        "appendix": (("sym", 6, 20, 2000), ("asym", 5, 20, 2000)),
        "simulate": (("sym", 5, 300), ("asym", 6, 300)),
        "enumerate": range(4, 11),
        "oracle": range(4, 8),
        "algebra": (7, 50),
        "probe_steps": {"ensemble": 64, "chain": 128},
    },
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    sz = SIZES[size]
    s = str(seed)
    if name == "sym-levels":
        jobs = tuple(
            Job(f"verify-sym-m{m}-{k}", ("verify", "--suite", "sym", "--m", str(m), "--replicas", str(r),
                                         "--steps", str(t), "--seed", str(seed * n + k)), "verify", m, r * t)
            for m, r, t, n in sz["sym"]
            for k in range(n)
        )
        streams = tuple(Shape("sym", "min", m, r) for m, r, _, _ in sz["sym"])
        probe = streams[0]
    elif name == "asym-diffusion":
        jobs = tuple(
            Job(f"scaling-m{m}", ("scaling", "--m", str(m), "--replicas", str(r), "--steps", str(t),
                                  "--seed", s), "scaling", m, r * t)
            for m, r, t in sz["scaling"]
        )
        streams = tuple(Shape("asym", "min", m, r) for m, r, _ in sz["scaling"])
        probe = streams[0]
    elif name == "max-freeze":
        jobs = tuple(
            Job(f"appendix-{k}-m{m}", ("verify", "--suite", "appendix", "--neighborhood", k, "--m", str(m),
                                       "--replicas", str(r), "--steps", str(t), "--seed", s),
                "verify", m, r * t)
            for k, m, r, t in sz["appendix"]
        )
        streams = tuple(Shape(k, "max", m, r) for k, m, r, _ in sz["appendix"])
        probe = streams[0]
    else:
        sims = tuple(
            Job(f"simulate-{k}-m{m}", ("simulate", "--neighborhood", k, "--rule", "min", "--m", str(m),
                                       "--steps", str(t), "--seed", s), "simulate", m, t, True)
            for k, m, t in sz["simulate"]
        )
        counts = tuple(
            Job(f"enumerate-m{m}", ("enumerate", "--m", str(m), "--counts", "--format", "json"), "counts", m)
            for m in sz["enumerate"]
        )
        oracles = tuple(Job(f"oracle-m{m}", check="oracle", m=m) for m in sz["oracle"])
        am, trials = sz["algebra"]
        algebra = Job("verify-algebra", ("verify", "--suite", "algebra", "--m", str(am), "--trials", str(trials),
                                         "--seed", s), "verify", am)
        jobs = sims + counts + oracles + (algebra,)
        streams = tuple(Shape(k, "min", m, 1) for k, m, _ in sz["simulate"])
        probe = streams[0]
    probe_steps = sz["probe_steps"]["chain" if probe.replicas == 1 else "ensemble"]
    return Workload(name, seed, jobs, streams, probe, probe_steps)


def window_sums(xi: list[int], kind: str) -> list[int]:
    m = len(xi)
    offsets = (0, 1) if kind == "asym" else (-1, 0, 1)
    return [sum(xi[(i + d) % m] for d in offsets) for i in range(m)]


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_cli_output(job: Job, rc: int, out: str, trajectory: str | None) -> tuple[bool, str]:
    """Whether one CLI job's outputs are correct, with a one-line reason if not."""
    if rc != 0:
        return False, f"exit code {rc}"
    data = _load(out)
    if job.check == "verify":
        if data.get("passed") is not True:
            bad = [inv["id"] for inv in data["invariants"] if not inv["passed"]]
            return False, f"invariants failed: {bad}"
        return True, ""
    if job.check == "scaling":
        ref = SIGMA_REFERENCE[job.m]
        rel = data["sigma_hat"] / ref - 1.0
        tol = sigma_tolerance(data["replicas"])
        if abs(rel) > tol:
            return False, f"sigma_hat {data['sigma_hat']:.5f} is {rel:+.2%} from {ref:.5f} (tolerance {tol:.2%})"
        return True, ""
    if job.check == "counts":
        m = job.m
        if m in TABLE_SMALL:
            got = (data["all_total"], data["all_from_empty"])
            want = TABLE_SMALL[m]
        else:
            got = (data["classes_from_empty"], data["classes_total"], data["all_from_empty"], data["all_total"])
            want = TABLE_LARGE[m]
        return (got == want, "" if got == want else f"counts {got} != table {want}")
    if job.check == "simulate":
        final = data["final"]
        kind = data["config"]["neighborhood"]
        steps = data["config"]["steps"]
        if final["t"] != steps or sum(final["xi"]) != steps:
            return False, f"final t={final['t']}, sum xi={sum(final['xi'])}, want {steps}"
        if final["u"] != window_sums(final["xi"], kind):
            return False, "final potentials are not the window sums of the occupancy"
        with open(trajectory, "rb") as fh:
            fh.seek(max(0, os.path.getsize(trajectory) - 4096))
            last = json.loads(fh.read().splitlines()[-1])
        if last["t"] != steps or last["xi"] != final["xi"]:
            return False, "last trajectory record differs from the final state"
        return True, ""
    raise ValueError(f"unknown check {job.check!r}")
