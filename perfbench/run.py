#!/usr/bin/env python3
"""nqsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from ./src).
One process runs one workload's fixed job (see workloads.py) again and again
for about S seconds, checks every output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured on the
unmodified program.  With --trace 1 untraced and traced repetitions
alternate, and the metrics are the per-layer ones (spans, counters, probes).
The line before it is {"record": ...}: environment, invocation, output digest
and per-job times.  Records and span dumps are also written to
.perfbench-out/.  Exit status is 2 when the sources or the workload name are
missing; a failed check is reported in the result, not by the status.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, spans, workloads  # noqa: E402  (none of them imports nqsim)

MIN_REPS = 2  # two repetitions at least (untraced or traced), so every run compares digests
SETUP_SAMPLES = {"full": 3, "tiny": 1}
IMPORT_SAMPLES = {"full": 3, "tiny": 1}
TRACED_SHARE = 0.6  # share of --seconds spent on repetitions in a traced run
STREAM_PREFIX = 64
CHILD_TIMEOUT = 60


@dataclass
class Rep:
    failures: list = field(default_factory=list)
    wall: dict = field(default_factory=dict)  # job label -> seconds
    cpu: dict = field(default_factory=dict)
    digest: str = ""


def job_median_sum(reps: list[Rep], attr: str, labels) -> float:
    """Sum over jobs of each job's median time across repetitions.

    Medians per job discard a noise burst that hits one job of one
    repetition, which a median of whole repetitions keeps when there are few.
    """
    return sum(statistics.median(getattr(r, attr)[label] for r in reps) for label in labels)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the smoke-test sizes")
    return p.parse_args(argv)


def _child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)


def measure_setup(workload: str, seed: int, size: str) -> list[float]:
    """Seconds from process start until nqsim is imported and the inputs are built."""
    samples = []
    for _ in range(SETUP_SAMPLES[size]):
        t0 = time.perf_counter()
        proc = _child(["setup", workload, str(seed), size])
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with status {proc.returncode}")
        samples.append(elapsed)
    return samples


def measure_imports(size: str) -> dict[str, tuple[float, str]]:
    """Median seconds per nqsim module import, each sample in a fresh process."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES[size]):
        proc = _child(["imports"])
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed with status {proc.returncode}")
        for mod, sec in json.loads(out.splitlines()[-1]).items():
            samples.setdefault(mod, []).append(sec)
    return {f"{mod}.import_s": (statistics.median(v), "s") for mod, v in samples.items()}


def run_job(job, out: str, trajectory: str | None) -> tuple[bool, str]:
    if job.check == "oracle":
        limits = sys.modules["nqsim.limits"]
        generated = {c.x for c in limits.enumerate_limits(job.m)}
        oracle = {c.x for c in limits.brute_force_oracle(job.m)}
        ok = generated == oracle
        return ok, "" if ok else f"generator and oracle differ at M={job.m}"
    argv = [*job.argv, "--out", out]
    if trajectory:
        argv += ["--trajectory", trajectory]
    rc = sys.modules["nqsim.cli"].main(argv)  # looked up per call, so a traced rep gets the wrapper
    return workloads.check_cli_output(job, rc, out, trajectory)


def run_rep(workload, workdir: Path) -> Rep:
    rep = Rep()
    outdir = tempfile.mkdtemp(dir=workdir)
    digest = hashlib.sha256()
    try:
        for job in workload.jobs:
            out = os.path.join(outdir, job.label + ".json")
            traj = os.path.join(outdir, job.label + ".jsonl") if job.trajectory else None
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                ok, why = run_job(job, out, traj)
            except Exception as exc:  # a raise is a failed op, not a crashed benchmark
                ok, why = False, f"raised {exc!r}"
            rep.wall[job.label] = time.perf_counter() - w0
            rep.cpu[job.label] = time.process_time() - c0
            if not ok:
                rep.failures.append(f"{job.label}: {why}")
            digest.update(job.label.encode())
            for path in (out, traj):
                if path and os.path.exists(path):
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    rep.digest = digest.hexdigest()
    return rep


def stream_check(shape, seed: int) -> tuple[bool, str]:
    """Replicas 0, R/2 and R-1 of the engine against single chains on streams (seed, r)."""
    dyn, ring = sys.modules["nqsim.dynamics"], sys.modules["nqsim.ring"]
    req = layers.ensemble_request(shape, STREAM_PREFIX, seed, record_sites=True)
    ens = sys.modules["nqsim.ensemble"].run_ensemble(req)
    kind = ring.Neighborhood.parse(shape.kind)
    for r in sorted({0, shape.replicas // 2, shape.replicas - 1}):
        single = dyn.run(dyn.ChainState.empty(shape.m, kind), dyn.parse_rule(shape.rule), STREAM_PREFIX,
                         dyn.RandomStream(seed, r), sample_every=1)
        sites = [rec.site for rec in single.records[1:]]
        if sites != ens.sites[r].tolist() or list(single.final.xi) != ens.xi[r].tolist():
            return False, f"replica {r} of {shape} differs from its single chain"
    return True, ""


def run_reps(workload, workdir: Path, budget: float, traced_with=None) -> tuple[list[Rep], list[Rep]]:
    """Repeat the job for about `budget` seconds; with a recorder, alternate untraced and traced reps."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_rep(workload, workdir))
        if traced_with is not None:
            uninstall = spans.install(traced_with, layers.COUNTERS)
            try:
                traced.append(run_rep(workload, workdir))
            finally:
                uninstall()
        step = time.perf_counter() - t0
        if len(plain) + len(traced) >= MIN_REPS and time.perf_counter() - start + step > budget:
            return plain, traced


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            packed = git / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines()
                               if ln.endswith(" " + ref)), None)
        else:
            commit = head
    except OSError:
        pass  # not a git checkout
    source = hashlib.sha256()
    for path in sorted((SRC / "nqsim").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "nqsim" / "__init__.py").is_file():
        print(f"perfbench: no nqsim sources in {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        workload = workloads.build(args.workload, args.seed, args.size)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed, args.size)

    import nqsim.cli

    if SRC.resolve() not in Path(nqsim.cli.__file__).resolve().parents:
        print(f"perfbench: nqsim was imported from {nqsim.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    failures: list[str] = []
    attempted = 0
    for shape in workload.streams:
        attempted += 1
        try:
            ok, why = stream_check(shape, args.seed)
        except Exception as exc:
            ok, why = False, f"raised {exc!r}"
        if not ok:
            failures.append(f"stream check: {why}")

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    recorder = spans.SpanRecorder() if args.trace else None
    try:
        budget = args.seconds * (TRACED_SHARE if args.trace else 1.0)
        plain, traced = run_reps(workload, workdir, budget, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reps = plain + traced
    digest = plain[0].digest
    for rep in reps:
        attempted += len(rep.wall)
        failures += rep.failures
    for rep in reps[1:]:
        attempted += 1
        if rep.digest != digest:
            failures.append(f"digest {rep.digest} differs from the first repetition's {digest}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
              "invocation": ["python3", "perfbench/run.py", *argv], "env": environment(), "digest": digest,
              "reps": len(plain), "rep_wall_s": [sum(r.wall.values()) for r in plain],
              "job_wall_s": {k: statistics.median(r.wall[k] for r in plain) for k in plain[0].wall}}
    labels = [job.label for job in workload.jobs]
    sim = [job for job in workload.jobs if job.replica_steps]
    if args.trace:
        recorder.run_id = "probe"
        uninstall = spans.install(recorder, layers.COUNTERS)
        try:
            layers.reach_probes(args.seed)
        finally:
            uninstall()
        stats = layers.SpanStats.by_run(recorder.spans, {"job": len(traced), "probe": 1})
        metrics, from_probe, tail_pct = layers.compute(stats["job"], stats["probe"])
        metrics.update(layers.differential(workload.probe, workload.probe_steps, args.seed))
        metrics.update(layers.philox(workload.probe.replicas, args.seed))
        metrics.update(measure_imports(args.size))
        metrics["trace_overhead_s"] = (
            job_median_sum(traced, "wall", labels) - job_median_sum(plain, "wall", labels), "s")
        record["traced_digest"] = traced[0].digest
        record["traced_rep_wall_s"] = [sum(r.wall.values()) for r in traced]
        record["layer_sources"] = {"probe": from_probe}
        record["tail_percentiles"] = tail_pct
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (job_median_sum(plain, "wall", labels), "s"),
            "cpu_s": (job_median_sum(plain, "cpu", labels), "s"),
            "replica_steps_per_s": (sum(j.replica_steps for j in sim)
                                    / job_median_sum(plain, "wall", [j.label for j in sim]), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        record["setup_samples_s"] = setup
    record["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
