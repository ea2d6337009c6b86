"""Per-layer metrics: span statistics, span counters, direct and differential probes.

Layer metrics describe the traced job.  A layer the job never reaches (for
example `dynamics.step` on the ensemble workloads, or `ensemble` on
chain-exact) takes its value from the reach probes instead: small calls of
that layer's public functions, traced under run id "probe".  `compute`
reports which metrics came from there.
"""
from __future__ import annotations

import dataclasses
import math
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from .spans import Span, self_times

PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def _nq(short: str):
    return sys.modules[f"nqsim.{short}"]


# --- counters recorded at span boundaries ---------------------------------

def _ensemble_counts(args, kwargs, result) -> dict:
    req = result.request
    nbytes = 0
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            nbytes += value.nbytes
        elif isinstance(value, dict):
            nbytes += sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    return {
        "replica_steps": req.replicas * req.steps,
        "locksteps": req.steps,
        "result_bytes": nbytes,
        "levels": int(result.level_counts.sum()) if result.level_counts is not None else 0,
        "renewals": int(result.renewal_counts.sum()) if result.renewal_counts is not None else 0,
    }


def _cli_output_bytes(args, kwargs, result) -> dict:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    total = 0
    for flag in ("--out", "--trajectory"):
        if flag in argv:
            try:
                total += os.path.getsize(argv[argv.index(flag) + 1])
            except OSError:
                pass  # the command failed before writing; the check reports it
    return {"output_bytes": total}


COUNTERS = {
    "ensemble.run_ensemble": _ensemble_counts,
    "limits.enumerate_limits": lambda a, k, r: {"configs": len(r)},
    "limits.brute_force_oracle": lambda a, k, r: {"strings": 3 ** (a[0] if a else k["m"])},
    "dynamics.run": lambda a, k, r: {"steps": r.final.t - (a[0] if a else k["initial"]).t},
    "cli.main": _cli_output_bytes,
}


# --- span statistics --------------------------------------------------------

class SpanStats:
    """Totals per span name over the spans of one run id, from `reps` repetitions of the same work."""

    def __init__(self, reps: int):
        self.reps = reps
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.count_max: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    @classmethod
    def by_run(cls, spans: list[Span], reps: dict[str, int]) -> dict[str, "SpanStats"]:
        """One SpanStats per run id in `reps`, which gives that run's repetition count."""
        out = {run_id: cls(n) for run_id, n in reps.items()}
        for span, own in zip(spans, self_times(spans)):
            if span.run_id in out:
                out[span.run_id].add(span, own)
        return out

    def add(self, span: Span, own: float) -> None:
        self.durations[span.name].append(span.end - span.start)
        self.self_s[span.name] += own
        for key, value in (span.counts or {}).items():
            self.counts[span.name][key] += value
            self.count_max[span.name][key] = max(self.count_max[span.name][key], value)

    def calls(self, name: str) -> float:
        return len(self.durations.get(name, ())) / self.reps

    def busy(self, name: str) -> float:
        return sum(self.durations.get(name, ())) / self.reps

    def counter(self, name: str, key: str) -> float:
        return self.counts[name][key] / self.reps if name in self.counts else 0.0

    def module_self(self, short: str) -> float:
        prefix = short + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix)) / self.reps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(values: list[float]) -> tuple[float, float, float]:
    """(p50, highest listed percentile with >= 10 samples beyond it, that percentile)."""
    ordered = sorted(values)
    n = len(ordered)

    def rank(p: float) -> float:
        return ordered[max(0, math.ceil(p / 100 * n) - 1)]

    pct = next((p for p in PERCENTILES if n * (1 - p / 100) >= 10), 50.0)
    return rank(50.0), rank(pct), pct


def _per_call_us(st: "SpanStats", span: str, part: int) -> float:
    d = st.durations.get(span)
    return tail_percentile([x * 1e6 for x in d])[part] if d else 0.0


TAIL_SPANS: dict[str, str] = {}  # "<per-call metric>.tail" -> span name


# Each metric: name -> (unit, span that must exist in the job, value function).
def _per_call(metrics: dict, base: str, span: str) -> None:
    """p50 per call, the tail percentile (which one goes to the record), and the sample count."""
    metrics[base] = ("us", span, lambda st: _per_call_us(st, span, 0))
    metrics[base + ".tail"] = ("us", span, lambda st: _per_call_us(st, span, 1))
    metrics[base + ".n"] = ("count", span, lambda st: float(len(st.durations.get(span, ()))))
    TAIL_SPANS[base + ".tail"] = span


def _span_metrics() -> dict:
    E = "ensemble.run_ensemble"
    m: dict = {
        "ensemble.calls": ("count", E, lambda st: st.calls(E)),
        "ensemble.busy_s": ("s", E, lambda st: st.busy(E)),
        "ensemble.replica_steps": ("count", E, lambda st: st.counter(E, "replica_steps")),
        "ensemble.us_per_lockstep": ("us", E, lambda st: 1e6 * _ratio(st.busy(E), st.counter(E, "locksteps"))),
        "ensemble.result_mb": ("MiB", E, lambda st: st.count_max[E]["result_bytes"] / 2**20),
        "ensemble.level_open_ratio": (
            "ratio", E, lambda st: _ratio(st.counter(E, "levels"), st.counter(E, "replica_steps"))),
        "ensemble.renewal_hit_ratio": (
            "ratio", E, lambda st: _ratio(st.counter(E, "renewals"), st.counter(E, "replica_steps"))),
        "dynamics.run.steps_per_s": (
            "1/s", "dynamics.run", lambda st: _ratio(st.counter("dynamics.run", "steps"), st.busy("dynamics.run"))),
    }
    _per_call(m, "dynamics.step.us_per_call", "dynamics.step")
    _per_call(m, "dynamics.transition_distribution.us_per_call", "dynamics.transition_distribution")
    _per_call(m, "dynamics.sample_site.us_per_call", "dynamics.sample_site")
    _per_call(m, "observers.LevelLog.on_step.us_per_call", "observers.LevelLog.on_step")
    _per_call(m, "observers.ParityGapSeries.on_step.us_per_call", "observers.ParityGapSeries.on_step")
    L, O = "limits.enumerate_limits", "limits.brute_force_oracle"
    A, S = "algebra.solve_occupancy_asym", "algebra.solve_occupancy_sym"
    F = "scaling.classify_freeze"
    m.update({
        "observers.match_limit.busy_s": ("s", "observers.match_limit", lambda st: st.busy("observers.match_limit")),
        "limits.enumerate_limits.busy_s": ("s", L, lambda st: st.busy(L)),
        "limits.configs": ("count", L, lambda st: st.counter(L, "configs")),
        "limits.brute_force_oracle.busy_s": ("s", O, lambda st: st.busy(O)),
        "limits.oracle.strings_per_s": ("1/s", O, lambda st: _ratio(st.counter(O, "strings"), st.busy(O))),
        "algebra.solves": ("count", A, lambda st: st.calls(A) + st.calls(S)),
        "algebra.solves_per_s": ("1/s", A, lambda st: _ratio(st.calls(A) + st.calls(S), st.busy(A) + st.busy(S))),
        "ring.potentials.calls": ("count", "ring.potentials", lambda st: st.calls("ring.potentials")),
        "ring.potentials.busy_s": ("s", "ring.potentials", lambda st: st.busy("ring.potentials")),
        "scaling.estimate_sigma.self_s": (
            "s", "scaling.estimate_sigma", lambda st: st.self_s["scaling.estimate_sigma"] / st.reps),
        "scaling.classify_freeze.calls": ("count", F, lambda st: st.calls(F)),
    })
    _per_call(m, "scaling.classify_freeze.us_per_call", F)
    m.update({
        "verify.self_s": ("s", "verify.run_suite", lambda st: st.module_self("verify")),
        "verify.final_half_flag_counts.busy_s": (
            "s", "ensemble.final_half_flag_counts", lambda st: st.busy("ensemble.final_half_flag_counts")),
        "cli.self_s": ("s", "cli.main", lambda st: st.module_self("cli")),
        "cli.output_bytes": ("count", "cli.main", lambda st: st.counter("cli.main", "output_bytes")),
    })
    return m


SPAN_METRICS = _span_metrics()


def compute(job: SpanStats, probe: SpanStats) -> tuple[dict, list[str], dict]:
    """Span-derived metrics as {name: (value, unit)}, the names taken from probes,
    and the percentile each `.tail` metric reports."""
    out, from_probe, tail_pct = {}, [], {}
    for name, (unit, span, value) in SPAN_METRICS.items():
        source = job if job.durations.get(span) else probe
        if source is probe:
            from_probe.append(name)
        out[name] = (float(value(source)), unit)
        if name in TAIL_SPANS:
            tail_pct[name] = _per_call_us(source, span, 2)
    return out, from_probe, tail_pct


# --- probes -----------------------------------------------------------------

def ensemble_request(shape, steps: int, seed: int, **flags):
    ens, dyn, ring = _nq("ensemble"), _nq("dynamics"), _nq("ring")
    return ens.EnsembleRequest(
        m=shape.m, kind=ring.Neighborhood.parse(shape.kind), rule=dyn.parse_rule(shape.rule),
        steps=steps, replicas=shape.replicas, seed=seed, **flags)


DIFFERENTIAL = {
    "bare": {},
    "levels": {"track_levels": True, "store_level_flags": True},
    "renewals": {"track_renewals": True},
    "sites": {"record_sites": True},
}


def differential(shape, steps: int, seed: int, repeats: int = 5) -> dict:
    """Microseconds per lock-step with no tracker, and the extra cost of each tracker alone.

    The trackers are closures inside run_ensemble, so no span can reach them;
    these are differences of whole runs, not spans.
    """
    run_ensemble = _nq("ensemble").run_ensemble
    times = defaultdict(list)
    for _ in range(repeats):
        for variant, flags in DIFFERENTIAL.items():
            req = ensemble_request(shape, steps, seed, **flags)
            t0 = time.perf_counter()
            run_ensemble(req)
            times[variant].append(time.perf_counter() - t0)
    us = {v: 1e6 * statistics.median(t) / steps for v, t in times.items()}
    out = {"ensemble.bare.us_per_lockstep": (us["bare"], "us")}
    for variant in ("levels", "renewals", "sites"):
        out[f"ensemble.{variant}.extra_us_per_lockstep"] = (us[variant] - us["bare"], "us")
    return out


def philox(replicas: int, seed: int, repeats: int = 5) -> dict:
    """Stream set-up per replica and draws/s for R streams drawing one chunk each, as the engine does."""
    stream = _nq("dynamics").RandomStream
    chunk = _nq("ensemble").EnsembleRequest.chunk_steps
    setup, rates = [], []
    for _ in range(repeats):
        gens = []
        for r in range(replicas):
            t0 = time.perf_counter()
            gens.append(stream(seed, r).generator())
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for g in gens:
            g.random(chunk)
        rates.append(replicas * chunk / (time.perf_counter() - t0))
    return {
        "dynamics.philox.setup_us_per_stream": (1e6 * statistics.median(setup), "us"),
        "dynamics.philox.draws_per_s": (statistics.median(rates), "1/s"),
    }


def reach_probes(seed: int) -> None:
    """Small calls into every layer that has a span metric; traced under run id "probe"."""
    dyn, obs, lim, ver, sc, ring = (_nq(s) for s in ("dynamics", "observers", "limits", "verify", "scaling", "ring"))
    sym, asym = ring.Neighborhood.SYMMETRIC, ring.Neighborhood.ASYMMETRIC
    dyn.run(dyn.ChainState.empty(5, sym), dyn.MinRule(), 1000, dyn.RandomStream(seed, 0),
            observers=[obs.LevelLog(sym)])
    dyn.run(dyn.ChainState.empty(4, asym), dyn.MinRule(), 1000, dyn.RandomStream(seed, 1),
            observers=[obs.LevelLog(asym), obs.ParityGapSeries(4)])
    obs.match_limit([0.25, 0.25, 0.0, 0.5, 0.0], lim.enumerate_limits(5))
    lim.brute_force_oracle(8)
    ver.run_suite("sym", 5, steps=1000, replicas=8, seed=seed)
    ver.run_suite("appendix", 5, steps=2000, replicas=8, seed=seed, kind=asym)
    ver.run_suite("algebra", 5, seed=seed, trials=20)
    sc.estimate_sigma(4, 8, (1024, 2048), seed)
