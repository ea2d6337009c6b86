import json
import os

import pytest

from nqsim.cli import main


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

    def test_m_too_small_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--m", "3", "--counts")
        assert code == 1
        assert "M >= 4" in err

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
        ],
        ids=["steps-str", "steps-float", "seed-bool", "beta-str", "init-list", "replicas-str",
             "format-int"],
    )
    def test_mistyped_config_value_exits_1(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 1
        assert f"config key {next(iter(config))!r}" in err
        assert "Traceback" not in err


class TestVerifyCommand:
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
