from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relaysched.cli import main


def run_cli(args):
    return main(args)


class TestRunCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli(["run", "--seed", "3", "--trials", "2", "--n", "5",
                        "--policies", "msrs,noncoop", "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "config_echo.json").exists()
        metrics = (out / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0].startswith("policy,seed,n_vehicles")
        assert len(metrics) == 1 + 2 * 2  # header + policies x trials
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["seed"] == 3 and echo["n_vehicles"] == 5

    def test_seed_is_mandatory(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli(["run", "--out", str(out)])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_policy_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(["run", "--seed", "1", "--policies", "nonsense",
                        "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_duplicate_policy_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli(["run", "--seed", "7", "--trials", "2", "--n", "10",
                        "--policies", "msrs,msrs,noncoop", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: policies listed more than once: ['msrs']"]
        assert captured.out == "" and not out.exists()

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "scenario": {"n_vehicles": 4},
            "run": {"trials": 1, "policies": ["noncoop"], "seed": 11},
        }))
        out = tmp_path / "res"
        code = run_cli(["run", "--config", str(cfg_path), "--trials", "2",
                        "--out", str(out)])
        assert code == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["trials"] == 2  # flag beats file
        assert echo["n_vehicles"] == 4  # file beats default


    @pytest.mark.parametrize("command", [["run", "--seed", "1"]])
    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"period": {"duration_s": 5.0, "t_start_s": 2.0}}))
        out = tmp_path / "res"
        code = run_cli(command + ["--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert "unknown config key 'period.t_start_s'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", [["run", "--seed", "1"]])
    def test_wrong_typed_config_value_fails_cleanly(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"run": {"trials": "7"}}))
        out = tmp_path / "res"
        code = run_cli(command + ["--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'run.trials' must be an integer")
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("command, text, message", [
        (["run"], '{"quadrature": {"relative_tolerance": NaN}}',
         "error: relative_tolerance must be positive and finite, got nan"),
        (["sweep-n"], '{"sweep": {"n_values": [2.5]}}',
         "error: config key 'sweep.n_values[0]' must be an integer, got 2.5"),
        (["run"], '{"scenario": {"lane_offsets_m": ["a", 2]}}',
         "error: config key 'scenario.lane_offsets_m[0]' must be a number, got \"a\""),
        (["run"], '{"radio": {"v2v_path_loss": {"reference_loss_db": NaN}}}',
         "error: path-loss reference_loss must be finite, got nan"),
        (["run"], '{"radio": {"v2i_path_loss": {"distance_divisor_m": 0}}}',
         "error: path-loss distance_divisor must be positive, got 0"),
        (["run"], '{"scenario": {"coverage_radius_m": Infinity}}',
         "error: coverage_radius must be finite, got inf"),
        (["sweep-n"], '{"scenario": {"lane_offsets_m": [1.75, NaN]}}',
         "error: lane_offsets must be finite, got (1.75, nan)"),
        (["run"], '{"period": {"duration_s": Infinity}}',
         "error: period_duration must be finite, got inf"),
        (["run"], '{"period": {"duration_s": 0}}', "error: period duration must be positive, got 0"),
        (["run"], '{"run": {"policies": []}}', "error: policies must not be empty"),
        (["run"], '{"sweep": {"n_values": []}}', "error: n_values must not be empty"),
        (["run"], '{"sweep": {"speed_values": []}}', "error: speed_values must not be empty"),
        (["run"], '{"run": {"oracle_cap": -5}}', "error: oracle_cap must be >= 0, got -5"),
        (["run"], '{"run": {"seed": -1}}', "error: seed must be in 0..2**64-1, got -1"),
        (["sweep-n"], '{"run": {"seed": 18446744073709551616}}',
         "error: seed must be in 0..2**64-1, got 18446744073709551616"),
    ], ids=["nan-tolerance", "float-fleet-size", "string-lane-offset", "nan-path-loss",
            "zero-distance-divisor", "infinite-coverage", "nan-lane-offset", "infinite-period",
            "zero-period", "no-policies", "no-fleet-sizes", "no-speeds", "negative-oracle-cap",
            "negative-seed", "seed-2**64"])
    def test_bad_config_value_fails_cleanly(self, tmp_path, capsys, command, text, message):
        # these used to run with no link converging, die in a TypeError
        # traceback, or fail later with a message that names no config key
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        out = tmp_path / "res"
        fleet = ["--n", "4"] if command == ["run"] else ["--n-values", "4"]
        code = run_cli(command + ["--seed", "1", *fleet, "--trials", "1",
                                  "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("name, content, reason", [
        ("missing.json", None, f"cannot read config file ({os.strerror(errno.ENOENT)})"),
        ("", None, f"cannot read config file ({os.strerror(errno.EISDIR)})"),
        ("bad.json", b'\xff\xfe{"run": {}}', "not valid UTF-8 (invalid start byte at byte 0)"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_fails_cleanly(self, tmp_path, capsys, name, content, reason):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "res"
        assert run_cli(["run", "--seed", "1", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {reason}"]
        assert not out.exists()

    @pytest.mark.parametrize("sub, reason", [
        ("", os.strerror(errno.EEXIST)), ("sub", os.strerror(errno.ENOTDIR)),
    ], ids=["file", "under-a-file"])
    def test_unusable_out_fails_before_the_run(self, tmp_path, capsys, sub, reason):
        # both used to raise from write_outputs, after every trial had run
        path = tmp_path / "taken"
        path.write_text("")
        out = path / sub  # "" leaves the path as it is
        assert run_cli(["run", "--seed", "1", "--trials", "1", "--n", "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {out}: cannot create output directory ({reason})"]
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["metrics.csv", "summary.csv", "config_echo.json"])
    def test_unwritable_output_fails_cleanly(self, tmp_path, capsys, name):
        # a directory where an output file goes used to end the run in a traceback
        out = tmp_path / "res"
        (out / name).mkdir(parents=True)
        assert run_cli(["run", "--seed", "1", "--trials", "1", "--n", "12",
                        "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {out / name}: cannot write outputs ({os.strerror(errno.EISDIR)})"]
        assert captured.out == ""
        # all three outputs or none: no file written before the failure, no temporary
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("command, point, trials", [
        ("run", ["--n", "5"], 3), ("sweep-n", ["--n-values", "3,5"], 2 * 3),
    ], ids=["run", "sweep-n"])
    def test_one_timing_line_for_the_whole_run(self, tmp_path, capsys, command, point, trials):
        out = tmp_path / "res"
        assert run_cli([command, "--seed", "3", "--trials", "3", *point,
                        "--policies", "msrs,noncoop", "--out", str(out)]) == 0
        # every trial of every point, counted once however many policies ran on it
        assert re.fullmatch(rf"\[timing\] {command}: {trials} trials in \d+\.\d{{3}} s, "
                            r"\d+\.\d\d ms per trial\n", capsys.readouterr().err)
        # the wall time stays out of the output files
        for name in ("metrics.csv", "summary.csv", "config_echo.json"):
            text = (out / name).read_text()
            assert not any(word in text for word in ("timing", "_ms", "wall", "per trial"))


class TestModuleEntryPoint:
    def test_python_dash_m_runs_from_the_source_tree(self, tmp_path):
        # a checkout that was never installed runs the CLI with src/ on the path
        out = tmp_path / "res"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-m", "relaysched", "run", "--seed", "1",
                               "--trials", "1", "--n", "4", "--out", str(out)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "config_echo.json", "metrics.csv", "summary.csv"]


class TestSweepCommands:
    def test_sweep_n(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli(["sweep-n", "--seed", "2", "--trials", "1",
                        "--policies", "noncoop", "--n-values", "3,5",
                        "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        sizes = sorted(int(line.split(",")[2]) for line in lines[1:])
        assert sizes == [3, 5]

    def test_unparsable_sweep_values_fail_cleanly(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli(["sweep-n", "--seed", "1", "--trials", "1", "--policies", "noncoop",
                        "--n-values", "20,x", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: could not parse value list '20,x'"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, field", [
        ("sweep-n", "--n-values", "n_values"), ("sweep-speed", "--speed-values", "speed_values"),
    ])
    @pytest.mark.parametrize("text", [",", ""])
    def test_empty_sweep_values_fail_cleanly(self, tmp_path, capsys, command, flag, field, text):
        # "," used to run no trial and write header-only files, "" to run the default sweep
        out = tmp_path / "res"
        code = run_cli([command, "--seed", "1", "--trials", "1", "--policies", "noncoop",
                        flag, text, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {field} must not be empty"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n", "--n-v"])
    def test_sweep_n_takes_no_fleet_size(self, tmp_path, capsys, flag):
        # the sweep sets the fleet size per point, and no flag abbreviates --n-values
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep-n", "--seed", "1", "--trials", "1", "--policies", "noncoop",
                     flag, "55", "--n-values", "20,40", "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 55" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_speed_deterministic_bytes(self, tmp_path):
        args = ["sweep-speed", "--seed", "8", "--trials", "2", "--n", "6",
                "--policies", "msrs,irrs", "--speed-values", "5,20"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--workers", "2", "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

