import json
import os

import numpy as np
import pytest

import nqsim.cli
import nqsim.verify
from nqsim.cli import main
from nqsim.dynamics import ChainState, MinRule, RandomStream, run
from nqsim.ensemble import EnsembleRequest, run_ensemble
from nqsim.limits import enumerate_limits
from nqsim.observers import match_limit
from nqsim.ring import Neighborhood


ENUMERATION_REFUSAL = "limit enumeration is supported up to M=36, got M=37\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerateCommand:
    def test_counts_m7(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "7", "--counts")
        assert code == 0
        assert "sequences total        14" in out
        assert "sequences from empty   7" in out

    def test_counts_m11_classes(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "11", "--counts", "--format", "json")
        assert code == 0
        counts = json.loads(out)
        assert counts["classes_total"] == 4
        assert counts["classes_from_empty"] == 1

    def test_json_m4_two_entries(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["configurations"]) == 2
        assert payload["configurations"][0]["x"] == ["1/2", "0", "1/2", "0"] or payload[
            "configurations"
        ][0]["x"] == ["0", "1/2", "0", "1/2"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "5", "--format", "csv", "--from-empty")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,x3,x4,x5,alpha,from_empty"
        assert len(lines) == 6  # header + 5 unstarred sequences
        assert all(line.endswith("true") for line in lines[1:])

    def test_up_to_rotation_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "10", "--up-to-rotation", "--from-empty"
        )
        assert code == 0
        assert "orbit 5" in out and "orbit 2" in out

    def test_seed_flag_is_not_accepted(self, capsys):
        # enumeration draws nothing, so a seed would be ignored
        code, out, err = run_cli(capsys, "enumerate", "--m", "5", "--counts", "--seed", "3")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --seed 3" in err

    def test_m_too_small_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--m", "3", "--counts")
        assert code == 1
        assert "M >= 4" in err

    @pytest.mark.parametrize(
        "flags",
        [("--counts",), ("--counts", "--format", "json"), (), ("--up-to-rotation", "--format", "csv")],
        ids=["counts", "counts-json", "listing", "rotation-csv"],
    )
    def test_ring_above_the_enumeration_limit_exits_1_with_one_line(self, capsys, flags):
        code, out, err = run_cli(capsys, "enumerate", "--m", "37", *flags)
        assert code == 1
        assert out == ""
        assert err == "nqsim enumerate: error: " + ENUMERATION_REFUSAL

    def test_output_file_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = run_cli(
                capsys, "enumerate", "--m", "8", "--format", "json", "--out", str(p)
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestSimulateCommand:
    def test_zero_steps_trajectory_has_initial_record_only(self, tmp_path, capsys):
        traj = tmp_path / "t.jsonl"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m", "5", "--neighborhood", "sym", "--rule", "min",
            "--steps", "0", "--seed", "1", "--trajectory", str(traj),
        )
        assert code == 0
        lines = traj.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["t"] == 0 and rec["site"] is None and rec["xi"] == [0] * 5

    @pytest.mark.parametrize("trajectory", [False, True], ids=["summary-only", "trajectory"])
    def test_level_records_are_kept_only_for_a_trajectory(self, tmp_path, capsys, monkeypatch,
                                                          trajectory):
        runs = []
        original = nqsim.cli.run

        def recording_run(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(nqsim.cli, "run", recording_run)
        traj = tmp_path / "t.jsonl"
        argv = ["simulate", "--m", "5", "--neighborhood", "sym", "--steps", "1050",
                "--sample-every", "100", "--seed", "3"]
        code, _, _ = run_cli(capsys, *argv, *(["--trajectory", str(traj)] if trajectory else []))
        assert code == 0
        times = [rec.t for rec in runs[0].records]
        sampled = [0, *range(100, 1050, 100), 1050]
        if not trajectory:
            assert times == sampled
            return
        every = original(ChainState.empty(5, Neighborhood.SYMMETRIC), MinRule(), 1050,
                         RandomStream(3, 0), sample_every=1).records
        opened = {b.t for a, b in zip(every, every[1:]) if b.m > a.m}
        assert times == sorted(set(sampled) | opened)
        assert [json.loads(line)["t"] for line in traj.read_text().splitlines()] == times

    @pytest.mark.parametrize("kind", ["sym", "asym"])
    def test_each_trajectory_line_is_its_records_sorted_key_json(self, tmp_path, capsys, kind):
        # A large start puts many-digit counts and potentials on every line.
        init = (123456789012, 0, 7, 10**15, 42, 99999)
        traj = tmp_path / "t.jsonl"
        code, _, err = run_cli(
            capsys, "simulate", "--m", "6", "--neighborhood", kind, "--steps", "600", "--seed", "4",
            "--init", ",".join(map(str, init)), "--sample-every", "7", "--trajectory", str(traj),
            "--out", os.devnull,
        )
        assert code == 0, err
        records = run(ChainState.from_occupancy(init, Neighborhood.parse(kind)), MinRule(), 600,
                      RandomStream(4, 0), sample_every=7, include_level_steps=True).records
        want = [
            json.dumps({**rec._asdict(), "xi": list(rec.xi), "u": list(rec.u), "v": list(rec.v)},
                       sort_keys=True) + "\n"
            for rec in records
        ]
        assert traj.read_text().splitlines(keepends=True) == want
        assert '"site": null' in want[0] and str(10**15) in want[-1]

    def test_unstable_symmetric_run_never_enumerates_limits(self, capsys, monkeypatch):
        # the limit set grows fast with M and an unstable chain matches nothing
        def refuse(m):
            raise AssertionError(f"enumerate_limits({m}) called for an unstable chain")

        monkeypatch.setattr(nqsim.cli, "enumerate_limits", refuse)
        code, out, err = run_cli(
            capsys, "simulate", "--m", "40", "--neighborhood", "sym", "--steps", "10", "--seed", "1"
        )
        assert code == 0, err
        assert json.loads(out)["verdict"] is None

    def test_stable_chain_above_the_enumeration_limit_exits_1_with_one_line(self, tmp_path, capsys):
        # a symmetric chain at M = 37 is stable after 1000 steps, so it would be matched
        traj = tmp_path / "t.jsonl"
        code, out, err = run_cli(
            capsys, "simulate", "--m", "37", "--neighborhood", "sym", "--steps", "1000", "--seed", "1",
            "--trajectory", str(traj),
        )
        assert code == 1
        assert out == "" and not traj.exists()
        assert err == "nqsim simulate: error: " + ENUMERATION_REFUSAL

    def test_byte_identical_outputs(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            traj = tmp_path / f"{name}.jsonl"
            summary = tmp_path / f"{name}.json"
            code, _, _ = run_cli(
                capsys,
                "simulate", "--m", "5", "--neighborhood", "asym", "--rule", "min",
                "--steps", "2000", "--seed", "7", "--trajectory", str(traj),
                "--out", str(summary),
            )
            assert code == 0
            outputs.append((traj.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_symmetric_summary_matches_known_limit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m", "5", "--neighborhood", "sym", "--rule", "min",
            "--steps", "20000", "--seed", "7", "--init", "empty",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["verdict"]["mode"] == "symmetric"
        matched = summary["verdict"]["matched"]
        assert matched is not None
        # a rotation of (1/4,1/4,0,1/2,0)
        parts = matched.strip("()").split(",")
        assert sorted(parts) == sorted(["1/4", "1/4", "0", "1/2", "0"])

    def test_explicit_init_and_softmax(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m", "4", "--neighborhood", "asym", "--rule", "softmax",
            "--beta", "0.5", "--steps", "100", "--seed", "3", "--init", "1,0,2,0",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["final"]["t"] == 100
        assert sum(summary["final"]["xi"]) == 103

    def test_huge_ring_refused_before_any_allocation(self, capsys, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("simulate allocated the chain")

        monkeypatch.setattr(nqsim.cli, "_parse_init", no_allocation)
        monkeypatch.setattr(ChainState, "from_occupancy", no_allocation)
        code, out, err = run_cli(capsys, "simulate", "--m", "100000000", "--steps", "2")
        assert code == 1
        assert out == ""
        assert err.startswith(
            "nqsim simulate: error: M=100000000 and 2 steps keep up to 2 records and need about "
        )
        assert err.endswith("MiB limit\n") and err.count("\n") == 1

    def test_long_trajectory_refused_before_any_allocation(self, tmp_path, capsys, monkeypatch):
        def no_allocation(*args):
            raise AssertionError("simulate allocated the chain")

        monkeypatch.setattr(nqsim.cli, "_parse_init", no_allocation)
        traj = tmp_path / "t.jsonl"
        code, out, err = run_cli(capsys, "simulate", "--m", "5", "--steps", "10000000000",
                                 "--trajectory", str(traj))
        assert code == 1
        assert out == "" and not traj.exists()
        assert err.startswith("nqsim simulate: error: M=5 and 10000000000 steps keep up to ")
        assert err.count("\n") == 1

    def test_estimate_is_calibrated_at_a_million_sites(self):
        need, kept = nqsim.cli._simulate_bytes(10**6, 2, 1000, Neighborhood.SYMMETRIC, False, True)
        assert kept == 2
        assert abs(need / 2**20 - 401) < 4  # measured peak: 401 MiB

    @pytest.mark.parametrize("init", ["empty", "4,0,1,0,0,2,3"])
    @pytest.mark.parametrize("kind", ["sym", "asym"])
    @pytest.mark.parametrize("rule", ["min", "max"])
    def test_estimate_bounds_the_records_kept(self, capsys, monkeypatch, init, kind, rule):
        runs = []
        original = nqsim.cli.run

        def recording_run(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(nqsim.cli, "run", recording_run)
        code, _, err = run_cli(capsys, "simulate", "--m", "7", "--neighborhood", kind, "--rule", rule,
                               "--init", init, "--steps", "3000", "--sample-every", "7",
                               "--trajectory", os.devnull)
        assert code == 0, err
        _, kept = nqsim.cli._simulate_bytes(7, 3000, 7, Neighborhood.parse(kind), True, init == "empty")
        assert len(runs[0].records) <= kept

    def test_limit_is_inclusive(self, capsys, monkeypatch):
        argv = ("simulate", "--m", "6", "--steps", "40", "--out", os.devnull)
        need, _ = nqsim.cli._simulate_bytes(6, 40, 1000, Neighborhood.SYMMETRIC, False, True)
        monkeypatch.setattr(nqsim.cli, "MAX_SIMULATE_BYTES", need)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(nqsim.cli, "MAX_SIMULATE_BYTES", need - 1)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.endswith("MiB limit\n")

    def test_bad_init_length_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--m", "4", "--neighborhood", "asym", "--rule", "min",
            "--steps", "10", "--seed", "0", "--init", "1,2",
        )
        assert code == 1

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("NQ_SEED", "7")
        code, out_env, _ = run_cli(
            capsys, "simulate", "--m", "4", "--neighborhood", "asym", "--rule", "min",
            "--steps", "500",
        )
        assert code == 0
        monkeypatch.delenv("NQ_SEED")
        code, out_flag, _ = run_cli(
            capsys, "simulate", "--m", "4", "--neighborhood", "asym", "--rule", "min",
            "--steps", "500", "--seed", "7",
        )
        assert json.loads(out_env) == json.loads(out_flag)

    def test_non_integer_env_seed_exits_1_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("NQ_SEED", "abc")
        code, out, err = run_cli(capsys, "simulate", "--m", "4", "--steps", "5")
        assert code == 1 and out == ""
        assert err == "nqsim simulate: error: NQ_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_integer_init_exits_1_with_one_line(self, tmp_path, capsys, source):
        if source == "flag":
            argv = ("--init", "1,x,0,0,0")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"init": "1,x,0,0,0"}))
            argv = ("--config", str(cfg))
        code, out, err = run_cli(capsys, "simulate", "--m", "5", "--steps", "5", *argv)
        assert code == 1 and out == ""
        assert err == ("nqsim simulate: error: --init must be 'empty' or M comma-separated integers, "
                       "got '1,x,0,0,0'\n")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 300, "seed": 5, "neighborhood": "asym", "rule": "min"}))
        code, out, _ = run_cli(
            capsys, "simulate", "--m", "4", "--config", str(cfg), "--steps", "100"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["final"]["t"] == 100  # flag wins
        assert summary["config"]["seed"] == 5  # config fills the gap

    @pytest.mark.parametrize(
        "command, config",
        [
            (["simulate", "--m", "4"], {"steps": "100"}),
            (["simulate", "--m", "4"], {"steps": 1.5}),
            (["simulate", "--m", "4"], {"seed": True}),
            (["simulate", "--m", "4", "--rule", "softmax"], {"beta": "0.5"}),
            (["simulate", "--m", "4"], {"init": [0, 0, 0, 0]}),
            (["verify", "--suite", "sym", "--m", "5"], {"replicas": "10"}),
            (["enumerate", "--m", "5"], {"format": 1}),
            # keys the command does not read, or that a flag overrides
            (["simulate", "--m", "4", "--steps", "5"], {"format": 3}),
            (["simulate", "--m", "4", "--steps", "5"], {"steps": 1.5}),
        ],
        ids=["steps-str", "steps-float", "seed-bool", "beta-str", "init-list", "replicas-str",
             "format-int", "unread-format-int", "overridden-steps-float"],
    )
    def test_mistyped_config_value_exits_1(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 1
        assert f"config key {next(iter(config))!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config, key", [({"stesp": 7, "m": "five"}, "stesp"), ({"m": 5}, "m")], ids=["typo", "m"]
    )
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, config, key):
        # --m is a required flag, so a config file has no "m" key to give.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--m", "4", "--steps", "3", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == f"nqsim simulate: error: config file {cfg} has an unknown key {key!r}\n"

    def test_json_summary_is_written_without_a_copy_in_memory(self, tmp_path, capsys):
        # The lists of a simulate summary at M = 100 000 (3.2 MB as
        # JSON): the write holds less than the file, not the whole text.
        import tracemalloc

        m = 100_000
        xi = [1 if i % 3 == 0 else 0 for i in range(m)]
        summary = {"final": {"t": 2, "xi": xi, "u": xi[::-1], "m": 0},
                   "fractions": [x / 3 for x in xi], "config": {"m": m}}
        path = tmp_path / "summary.json"
        tracemalloc.start()
        try:
            nqsim.cli._dump_json(summary, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        assert path.read_text() == text
        assert 2.5e6 < path.stat().st_size and peak < path.stat().st_size
        nqsim.cli._dump_json(summary, None)
        assert capsys.readouterr().out == text


# The flags each verify suite reads; every other suite flag is a usage error.
SUITE_FLAGS = {
    "asym-odd": ("steps", "replicas"),
    "asym-even": ("steps", "replicas"),
    "sym": ("steps", "replicas"),
    "appendix": ("steps", "replicas", "neighborhood"),
    "algebra": ("trials",),
}
FLAG_VALUES = {"steps": 2000, "replicas": 2, "trials": 5, "neighborhood": "asym"}


class TestVerifyCommand:
    @pytest.mark.parametrize("flag", ["steps", "replicas", "trials", "neighborhood"])
    @pytest.mark.parametrize("suite", list(SUITE_FLAGS))
    def test_each_suite_flag_is_read_or_refused(self, capsys, suite, flag):
        m = "6" if suite == "asym-even" else "5"
        if flag not in SUITE_FLAGS[suite]:
            code, out, err = run_cli(
                capsys, "verify", "--suite", suite, "--m", m, f"--{flag}", str(FLAG_VALUES[flag])
            )
            assert code == 1
            assert out == ""
            if flag == "neighborhood":
                assert err == "nqsim verify: error: --neighborhood applies only to the appendix suite\n"
            else:
                assert err == f"nqsim verify: error: --{flag} does not apply to the {suite} suite\n"
            return
        argv = [a for f in SUITE_FLAGS[suite] for a in (f"--{f}", str(FLAG_VALUES[f]))]
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--m", m, *argv)
        assert code == 0, err
        config = json.loads(out)["config"]
        assert config["kind" if flag == "neighborhood" else flag] == FLAG_VALUES[flag]

    def test_sym_suite_counts_match_a_per_replica_reference(self, capsys):
        # At M=9 and 110 steps some replicas are not yet stable and some are
        # stable with fractions still far from every limit.
        m, steps, replicas, seed = 9, 110, 20, 0
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "sym", "--m", str(m), "--steps", str(steps),
            "--replicas", str(replicas), "--seed", str(seed),
        )
        assert code in (0, 2)
        detail = next(
            inv["detail"] for inv in json.loads(out)["invariants"]
            if inv["id"] == "matched-limits-reachable-from-empty"
        )
        res = run_ensemble(EnsembleRequest(
            m=m, kind=Neighborhood.SYMMETRIC, rule=MinRule(), steps=steps, replicas=replicas,
            seed=seed, track_levels=True, store_level_flags=True,
        ))
        limits = enumerate_limits(m)
        verdicts = []
        for r in range(replicas):
            if res.run_length[r] < 25:
                verdicts.append("unstable")
                continue
            limit, _ = match_limit(res.xi[r] / steps, limits)
            if limit is None:
                verdicts.append("unmatched")
            else:
                verdicts.append("matched" if limit.achievable_from_empty else "starred")
        assert {"unstable", "unmatched", "matched"} <= set(verdicts)
        assert detail == {
            "stable_replicas": replicas - verdicts.count("unstable"),
            "matched_replicas": verdicts.count("matched") + verdicts.count("starred"),
            "starred_matches": verdicts.count("starred"),
        }

    def test_sym_suite_without_stable_replicas_never_enumerates_limits(self, capsys, monkeypatch):
        # the limit set grows fast with M and no replica is stable after 10 steps
        def refuse(m):
            raise AssertionError(f"enumerate_limits({m}) called with no stable replica")

        monkeypatch.setattr("nqsim.verify.enumerate_limits", refuse)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "sym", "--m", "40", "--steps", "10", "--replicas", "2"
        )
        assert code in (0, 2), err
        detail = next(
            inv["detail"] for inv in json.loads(out)["invariants"]
            if inv["id"] == "matched-limits-reachable-from-empty"
        )
        assert detail == {"stable_replicas": 0, "matched_replicas": 0, "starred_matches": 0}

    def test_stable_replicas_above_the_enumeration_limit_exit_1_with_one_line(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "sym", "--m", "37", "--steps", "1000", "--replicas", "2"
        )
        assert code == 1
        assert out == ""
        assert err == "nqsim verify: error: " + ENUMERATION_REFUSAL

    def test_algebra_suite_m7(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--suite", "algebra", "--m", "7", "--seed", "1",
            "--trials", "200", "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        ids = {inv["id"] for inv in report["invariants"]}
        assert "round-trip-unique-asym" in ids
        assert "infeasible-mod3-detected" in ids

    def test_asym_even_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "asym-even", "--m", "6", "--replicas", "5",
            "--steps", "4000", "--seed", "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        ids = [inv["id"] for inv in report["invariants"]]
        assert "even-odd-potential-sums-equal" in ids
        assert "S-nonincreasing" in ids

    def test_sym_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "sym", "--m", "5", "--replicas", "4",
            "--steps", "6000", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True

    def test_appendix_requires_neighborhood(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "appendix", "--m", "5", "--neighborhood", "asym",
            "--replicas", "10", "--steps", "3000", "--seed", "4",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True

    @pytest.mark.parametrize(
        "suite, m", [("asym-odd", "5"), ("asym-even", "6"), ("sym", "5"), ("appendix", "5")]
    )
    def test_asym_suites_refuse_zero_steps(self, capsys, suite, m):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--m", m, "--steps", "0")
        assert code == 1
        assert out == ""
        assert err == f"nqsim verify: error: {suite} suite needs steps >= 1, got 0\n"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_algebra_suite_refuses_no_trials(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify", "--suite", "algebra", "--m", "5", "--trials", trials)
        assert code == 1
        assert out == ""
        assert err == f"nqsim verify: error: algebra suite needs trials >= 1, got {trials}\n"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_algebra_suite_refuses_a_seed_outside_64_bits(self, capsys, seed):
        code, out, err = run_cli(capsys, "verify", "--suite", "algebra", "--m", "5", "--seed", str(seed))
        assert code == 1
        assert out == ""
        assert err == f"nqsim verify: error: seed must fit in 64 bits, got {seed}\n"

    def test_algebra_suite_takes_the_largest_64_bit_seed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "algebra", "--m", "5", "--trials", "20",
                               "--seed", str(2**64 - 1))
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 2**64 - 1

    def test_algebra_suite_refuses_a_ring_it_cannot_hold_before_drawing(self, capsys, monkeypatch):
        class NoDraws:
            def integers(self, *args, **kwargs):
                raise AssertionError("a case was drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(AssertionError):  # the stub sees a draw
            main(["verify", "--suite", "algebra", "--m", "7", "--trials", "1"])
        code, out, err = run_cli(capsys, "verify", "--suite", "algebra", "--m", "100000000")
        assert code == 1
        assert out == ""
        assert err == ("nqsim verify: error: algebra suite at M=100000000 needs about 24414 MiB, "
                       "above the 4096 MiB limit\n")

    def test_algebra_limit_is_inclusive(self, capsys, monkeypatch):
        argv = ("verify", "--suite", "algebra", "--m", "7", "--trials", "3", "--out", os.devnull)
        monkeypatch.setattr(nqsim.verify, "MAX_ALGEBRA_BYTES", nqsim.verify.algebra_bytes(7))
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(nqsim.verify, "MAX_ALGEBRA_BYTES", nqsim.verify.algebra_bytes(7) - 1)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.endswith("MiB limit\n") and err.count("\n") == 1

    @pytest.mark.parametrize("suite", ["sym", "asym-odd", "algebra"])
    def test_neighborhood_outside_appendix_exits_1(self, capsys, suite):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--m", "5", "--neighborhood", "asym",
            "--replicas", "1", "--steps", "10",
        )
        assert code == 1
        assert out == ""
        assert err == "nqsim verify: error: --neighborhood applies only to the appendix suite\n"

    @pytest.mark.parametrize(
        "suite, flags, message",
        [
            ("sym", ("--trials", "3", "--steps", "100", "--replicas", "2"),
             "--trials does not apply to the sym suite"),
            ("appendix", ("--trials", "3"), "--trials does not apply to the appendix suite"),
            ("algebra", ("--steps", "7"), "--steps does not apply to the algebra suite"),
            ("algebra", ("--replicas", "2"), "--replicas does not apply to the algebra suite"),
        ],
    )
    def test_flags_the_suite_ignores_exit_1(self, capsys, suite, flags, message):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--m", "5", *flags)
        assert code == 1
        assert out == ""
        assert err == f"nqsim verify: error: {message}\n"

    def test_asymmetric_appendix_freezes_to_single_sites_at_500_steps(self, capsys):
        # every run from empty is frozen on one site long before step 500
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "appendix", "--m", "5", "--neighborhood", "asym",
            "--replicas", "20", "--steps", "500", "--seed", "5",
        )
        assert code == 0
        counts = json.loads(out)["invariants"][0]["detail"]["counts"]
        assert counts == {"single": 20, "pair": 0, "unfrozen": 0}

    def test_symmetric_appendix_pair_shares_pass_at_500_steps(self, capsys):
        # The share deviation 0.058 exceeded a fixed 0.05; the tolerance for
        # 20 replicas of 500 steps is 0.124 (`verify.pair_share_tolerance`).
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "appendix", "--m", "6", "--neighborhood", "sym",
            "--replicas", "20", "--steps", "500", "--seed", "4",
        )
        assert code == 0
        detail = json.loads(out)["invariants"][1]["detail"]
        assert detail["tolerance"] == 0.124
        assert 0.05 < detail["max_share_deviation"] <= 0.124

    def test_wrong_parity_suite_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--suite", "asym-odd", "--m", "6", "--replicas", "2",
            "--steps", "100", "--seed", "0",
        )
        assert code == 1
        assert "odd" in err


class TestScalingCommand:
    def test_odd_m_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "scaling", "--m", "5", "--replicas", "8", "--steps", "2048", "--seed", "0"
        )
        assert code == 1
        assert "even" in err

    def test_small_run_skips_ks_with_warning(self, capsys):
        code, out, err = run_cli(
            capsys, "scaling", "--m", "4", "--replicas", "10", "--steps", "2048", "--seed", "0"
        )
        assert code == 0
        assert "warning" in err and "KS skipped" in err
        payload = json.loads(out)
        assert payload["ks_p"] is None
        assert payload["sigma_hat"] > 0
        assert payload["config"]["checkpoints"] == [1024, 2048]

    def test_one_replica_exits_1_with_one_line(self, capsys):
        code, out, err = run_cli(capsys, "scaling", "--m", "4", "--replicas", "1", "--steps", "1024")
        assert code == 1
        assert out == ""
        assert err == "nqsim scaling: error: need at least 2 replicas to estimate a variance, got 1\n"

    def test_huge_ring_refused_before_the_state_search(self, capsys, monkeypatch):
        # The search would keep up to 8192 tuples of 4 000 000 entries; it is
        # refused from its worst case before it starts.
        def no_search(*args):
            raise AssertionError("the state search ran")

        monkeypatch.setattr("nqsim.statetable.min_rule_states", no_search)
        code, out, err = run_cli(capsys, "scaling", "--m", "4000000", "--replicas", "2", "--steps", "1024")
        assert code == 1
        assert out == ""
        assert err.startswith("nqsim scaling: error: M=4000000, 2 replicas and 1024 steps need about ")
        assert err.endswith("MiB limit\n") and err.count("\n") == 1

    def test_unknown_command_usage(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate", "--m", "4")
        assert code == 1


class TestExitCodes:
    def test_io_error_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "enumerate", "--m", "4", "--counts", "--out", "/nonexistent-dir/x.json",
        )
        assert code == 3

    def test_failing_suite_exit_2(self, capsys, monkeypatch):
        import nqsim.cli as cli_mod
        from nqsim.verify import InvariantResult, VerificationReport

        def fake_suite(*args, **kwargs):
            return VerificationReport(
                "sym", {}, [InvariantResult("always-fails", False, 1, {})]
            )

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "sym", "--m", "5", "--replicas", "1",
            "--steps", "10", "--seed", "0",
        )
        assert code == 2
        assert "always-fails" in err

    @pytest.mark.parametrize(
        "module, argv, message",
        [
            ("nqsim.verify", ("verify", "--suite", "sym", "--m", "5", "--steps", "10"), "no room"),
            ("nqsim.verify", ("verify", "--suite", "sym", "--m", "5", "--steps", "10"), ""),
            ("nqsim.scaling", ("scaling", "--m", "4", "--replicas", "100", "--steps", "1024"), "no room"),
        ],
    )
    def test_out_of_memory_exits_1_without_traceback(self, capsys, monkeypatch, module, argv, message):
        def out_of_memory(req):
            raise MemoryError(message)

        monkeypatch.setattr(f"{module}.run_ensemble", out_of_memory)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        detail = f": {message}" if message else ""
        assert err == f"nqsim {argv[0]}: error: out of memory{detail}\n"

    def test_oversized_run_exits_1_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr("nqsim.ensemble.MAX_ENSEMBLE_BYTES", 1000)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "appendix", "--m", "5", "--neighborhood", "asym",
            "--replicas", "4", "--steps", "100",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("nqsim verify: error: ") and err.endswith("MiB limit\n")
        assert err.count("\n") == 1
