"""Command-line surface: exit codes, validation, end-to-end wiring."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voxhunt
from voxhunt.cli import main
from voxhunt.mapio import fixture_path


@pytest.fixture
def quick_config(tmp_path, area1_demo_paths):
    cfg = {
        "map_path": str(fixture_path("testmap_area1.json")),
        "demo_paths": list(area1_demo_paths),
        "iterations": 2,
        "episodes_per_iter": 2,
        "episode_length": 16,
        "seed": 5,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


class TestValidation:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_map_listed_before_start(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"map_path": "gone.json", "iterations": -2}))
        rc = main(["train", "--config", str(p)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "map_path" in err and "iterations" in err  # all problems listed

    def test_bad_override_exits_2(self, quick_config, capsys):
        rc = main(["train", "--config", str(quick_config), "--set", "nope.x=1"])
        assert rc == 2

    def test_existing_run_dir_exits_2(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "something").write_text("x")
        rc = main(["train", "--config", str(quick_config), "--out", str(out)])
        assert rc == 2

    def test_zero_eval_episodes_exits_2_before_start(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "train", "--config", str(quick_config), "--out", str(out),
            "--set", "eval_every=1", "--set", "eval_episodes=0",
        ])
        assert rc == 2
        assert "eval_episodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            "ppo.minibatch=0",
            "imitation.batch_size=0",
            "curiosity.batch_size=0",
            "imitation.buffer_capacity=0",
            "ppo.epochs=-1",
            "imitation.updates_per_iter=-1",
            "curiosity.updates_per_iter=-1",
        ],
    )
    def test_nested_batch_sizes_exit_2_before_start(self, setting, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "train", "--config", str(quick_config), "--out", str(out),
            "--set", "iterations=1", "--set", setting,
        ])
        assert rc == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_removed_workers_setting_rejected_before_side_effect(
        self, quick_config, tmp_path, capsys
    ):
        p = tmp_path / "old.json"
        p.write_text(json.dumps({**json.loads(quick_config.read_text()), "workers": 2}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(p), "--out", str(out)]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()
        for flags in (["--workers", "2"], ["--deterministic"]):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--config", str(quick_config), "--out", str(out), *flags])
            assert exc.value.code == 2
        assert not out.exists()


class TestTrainTriageExport:
    def test_full_cycle(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--config", str(quick_config), "--out", str(out)])
        assert rc == 0
        assert (out / "manifest.json").exists()

        rc = main(["triage", str(out)])
        assert rc == 0
        assert (out / "triage_report.json").exists()

        rc = main(["report", str(out)])
        assert rc == 0
        assert "bugs found" in capsys.readouterr().out

        rc = main(["export", str(out), "--demos"])
        assert rc == 0
        assert (out / "trajectories.tsv").exists()

    def test_triage_rerun_identical(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(quick_config), "--out", str(out)])
        main(["triage", str(out)])
        first = (out / "triage_report.json").read_bytes()
        main(["triage", str(out)])
        assert (out / "triage_report.json").read_bytes() == first

    def test_torn_dataset_line_exits_1_with_line_number(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(out)]) == 0
        data = out / "dataset.jsonl"
        lines = data.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        data.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        capsys.readouterr()

        assert main(["triage", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{data}: line 3:" in err and "Traceback" not in err
        assert main(["export", str(out)]) == 1
        assert f"{data}: line 3:" in capsys.readouterr().err

    def test_torn_report_exits_1_with_path(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(out)]) == 0
        assert main(["triage", str(out)]) == 0
        report = out / "triage_report.json"
        commands = (["report"], ["export"], ["export", "--theta-only"])
        for damaged in (report.read_bytes()[:100], b"{}"):
            report.write_bytes(damaged)
            capsys.readouterr()
            for command in commands:
                assert main([command[0], str(out), *command[1:]]) == 1
                err = capsys.readouterr().err
                assert f"error: {report}:" in err and "Traceback" not in err

    def test_replay_divergence_exits_1(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(out)]) == 0
        data = out / "dataset.jsonl"
        records = [json.loads(line) for line in data.read_text().splitlines()]
        x, y, z = records[1]["positions"][5]
        records[1]["positions"][5] = [x, y + 1, z]
        data.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        capsys.readouterr()
        assert main(["triage", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"trajectory {records[1]['id']}: replay diverged" in err
        assert not (out / "triage_report.json").exists()

    def test_rerun_with_same_seed_is_bit_identical(self, quick_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = main(["train", "--config", str(quick_config), "--seed", "7", "--out", str(out)])
            assert rc == 0
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        assert (out1 / "dataset.jsonl").read_bytes() == (out2 / "dataset.jsonl").read_bytes()
        assert "workers" not in json.loads((out1 / "manifest.json").read_text())

    def test_torn_config_exits_1_with_path(self, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(out)]) == 0
        cfg = out / "config.json"
        cfg.write_text(cfg.read_text()[:40])
        capsys.readouterr()
        for argv in (["triage", str(out)], ["export", str(out), "--demos"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"error: {cfg}: invalid JSON at line" in err and "Traceback" not in err

    def test_run_written_with_workers_field_still_triages(self, quick_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(out)]) == 0
        main(["triage", str(out)])
        report = (out / "triage_report.json").read_bytes()
        cfg = out / "config.json"
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "workers": 2}))
        assert main(["triage", str(out)]) == 0
        assert (out / "triage_report.json").read_bytes() == report
        assert main(["export", str(out), "--demos"]) == 0


class TestBadRecords:
    """A dataset line that decodes but cannot be used ends in one error line
    naming it, exit 1, and nothing written."""

    @pytest.fixture
    def run(self, quick_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(out)]) == 0
        return out

    def _rewrite(self, run, edit):
        """Rewrite every dataset line as ``edit(index, record)``."""
        data = run / "dataset.jsonl"
        records = [json.loads(line) for line in data.read_text().splitlines()]
        data.write_text("".join(edit(i, r) + "\n" for i, r in enumerate(records)))
        return records

    def _drop(self, run, key):
        """Drop ``key`` from the second record; return that record whole."""
        records = self._rewrite(
            run, lambda i, r: json.dumps({k: v for k, v in r.items() if i != 1 or k != key})
        )
        return records[1]

    def _fails(self, run, command, capsys, want):
        capsys.readouterr()
        assert main([command, str(run)]) == 1
        err = capsys.readouterr().err
        assert want in err and "Traceback" not in err, err

    def test_non_object_line_names_path_and_line(self, run, capsys):
        self._rewrite(run, lambda i, r: "[1, 2]" if i == 1 else json.dumps(r))
        want = f"error: {run / 'dataset.jsonl'}: line 2: record is not a JSON object"
        self._fails(run, "triage", capsys, want)
        self._fails(run, "export", capsys, want)
        assert not (run / "triage_report.json").exists()
        assert not (run / "trajectories.tsv").exists()

    @pytest.mark.parametrize(
        "command, key",
        [("triage", k) for k in ("id", "alpha", "actions", "positions")]
        + [("export", k) for k in ("id", "alpha", "reached_goal", "positions")],
    )
    def test_record_missing_a_field_is_named(self, run, command, key, capsys):
        record = self._drop(run, key)
        name = "record 2" if key == "id" else f"trajectory {record['id']}"
        want = f"error: {run / 'dataset.jsonl'}: {name}: missing field {key}"
        self._fails(run, command, capsys, want)
        assert not (run / "triage_report.json").exists()
        assert not (run / "trajectories.tsv").exists()

    @pytest.mark.parametrize(
        "key, value, commands",
        [
            ("id", "7", ("triage", "export")),
            ("id", True, ("triage", "export")),
            ("id", 1.0, ("triage", "export")),
            ("alpha", "high", ("triage", "export")),
            ("alpha", True, ("triage", "export")),
            ("alpha", None, ("triage", "export")),
            ("reached_goal", 1, ("export",)),
            ("reached_goal", "yes", ("export",)),
            ("positions", [[0, 0]], ("triage", "export")),
            ("positions", [[0, 0, 0.5]], ("triage", "export")),
            ("positions", [[0, 0, True]], ("triage", "export")),
            ("positions", [(0, 0, 0), 5], ("triage", "export")),
            ("positions", "0 0 0", ("triage", "export")),
            ("bug_regions", [0, "1"], ("export",)),
            ("bug_regions", 3, ("export",)),
        ],
    )
    def test_record_with_a_mistyped_field_is_named(self, run, key, value, commands, capsys):
        records = self._rewrite(run, lambda i, r: json.dumps({**r, key: value} if i == 1 else r))
        name = "record 2" if key == "id" else f"trajectory {records[1]['id']}"
        want = f"error: {run / 'dataset.jsonl'}: {name}: field {key} is not"
        for command in commands:
            self._fails(run, command, capsys, want)
        assert not (run / "triage_report.json").exists()
        assert not (run / "trajectories.tsv").exists()

    def test_export_without_bug_regions(self, run):
        self._rewrite(
            run, lambda i, r: json.dumps({k: v for k, v in r.items() if k != "bug_regions"})
        )
        assert main(["export", str(run)]) == 0
        headers = [
            line for line in (run / "trajectories.tsv").read_text().splitlines()
            if line.startswith("# trajectory")
        ]
        assert headers and all(" bugs=- " in line for line in headers)


class TestThresholdFlags:
    """Bad threshold flags exit 2 before the run is read: a run directory
    that does not exist would otherwise exit 1."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--quantile", "1.5"],
            ["--quantile", "-0.1"],
            ["--quantile", "nan"],
            ["--quantile", "inf"],
            ["--mode", "absolute"],
            ["--mode", "absolute", "--epsilon", "nan"],
            ["--mode", "absolute", "--epsilon", "inf"],
        ],
    )
    def test_triage_exits_2_before_reading(self, tmp_path, flags, capsys):
        assert main(["triage", str(tmp_path / "absent"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and "Traceback" not in err

    def test_triage_accepts_bounds(self, quick_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(out)]) == 0
        for flags in (
            ["--quantile", "0"], ["--quantile", "1"], ["--mode", "absolute", "--epsilon", "0"]
        ):
            assert main(["triage", str(out), *flags]) == 0

    @pytest.mark.parametrize("epsilon", [[], ["--epsilon", "nan"]])
    def test_ablate_reward_exits_2_before_training(
        self, quick_config, tmp_path, epsilon, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a variant was trained")

        monkeypatch.setattr("voxhunt.cli.run_training", no_training)
        out = tmp_path / "sweep"
        argv = ["ablate-reward", "--config", str(quick_config), "--out", str(out)]
        assert main([*argv, "--mode", "absolute", *epsilon]) == 2
        assert "--mode absolute requires a finite --epsilon" in capsys.readouterr().err
        assert not out.exists()


class TestDemoTools:
    def test_demo_record_and_verify(self, tmp_path, capsys):
        actions = tmp_path / "actions.txt"
        actions.write_text("\n".join(["MoveE"] * 9) + "\n")
        out = tmp_path / "demo.txt"
        rc = main([
            "demo-record", "--map", str(fixture_path("corridor.json")),
            "--goal", "0", "--actions", str(actions), "--out", str(out),
        ])
        assert rc == 0
        rc = main(["demo-verify", "--map", str(fixture_path("corridor.json")), str(out)])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_demo_record_rejects_non_goal_script(self, tmp_path, capsys):
        actions = tmp_path / "actions.txt"
        actions.write_text("Wait\nWait\n")
        rc = main([
            "demo-record", "--map", str(fixture_path("corridor.json")),
            "--goal", "0", "--actions", str(actions), "--out", str(tmp_path / "d.txt"),
        ])
        assert rc == 1

    def test_demo_tools_check_what_training_checks(self, tmp_path, capsys):
        """A demo naming a goal the map lacks fails demo-verify and demo-record,
        as it fails training."""
        p = tmp_path / "goal7.txt"
        p.write_text(fixture_path("demo_area1_1.txt").read_text().replace("goal: 0", "goal: 7"))
        area1 = str(fixture_path("testmap_area1.json"))
        assert main(["demo-verify", "--map", area1, str(p)]) == 1
        assert f"{p}: goal 7 not in map testmap_area1" in capsys.readouterr().out
        out = tmp_path / "d.txt"
        argv = ["--map", area1, "--goal", "7", "--actions", str(p), "--out", str(out)]
        assert main(["demo-record", *argv]) == 1
        assert "goal 7 not in map testmap_area1" in capsys.readouterr().err
        assert not out.exists()

    def test_demo_verify_flags_bug_entering_script(self, tmp_path, capsys):
        # walking straight east crosses the hidden hole in the dividing wall
        actions = ["MoveE"] * 10 + ["Wait"] * 4
        p = tmp_path / "demo.txt"
        p.write_text(
            "format_version: 1\nmap: testmap_area1\ngoal: 0\n" + "\n".join(actions) + "\n"
        )
        rc = main(["demo-verify", "--map", str(fixture_path("testmap_area1.json")), str(p)])
        out = capsys.readouterr().out
        assert "missing_collision" in out


class TestAblateReward:
    def test_emits_four_labeled_rows(self, tmp_path, area1_demo_paths):
        cfg = {
            "map_path": str(fixture_path("testmap_area1.json")),
            "demo_paths": list(area1_demo_paths),
            "iterations": 2,
            "episodes_per_iter": 3,
            "episode_length": 24,
            "seed": 9,
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep"
        rc = main(["ablate-reward", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = (out / "reward_ablation.tsv").read_text().splitlines()
        assert lines[0] == "variant\tcoverage\tbugs_found\tbugs_highlighted"
        rows = [l.split("\t") for l in lines[1:] if l and not l.startswith("#")]
        assert [r[0] for r in rows] == [
            "CCPT", "Linear Combination", "Only Imitation", "Only Curiosity",
        ]
        for r in rows:
            assert all(v.isdigit() for v in r[1:])


class TestOutputRoot:
    def test_env_var_sets_default_run_directory(self, tmp_path, monkeypatch, area1_demo_paths):
        cfg = {
            "map_path": str(fixture_path("testmap_area1.json")),
            "demo_paths": list(area1_demo_paths),
            "iterations": 1,
            "episodes_per_iter": 2,
            "episode_length": 8,
            "seed": 4,
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setenv("VOXHUNT_OUT", str(tmp_path / "root"))
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 0
        assert (tmp_path / "root" / "run-seed4" / "manifest.json").exists()


class TestBundledConfigs:
    def test_quickstart_config_validates_and_runs_truncated(self, tmp_path):
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
        out = tmp_path / "run"
        rc = main([
            "train", "--config", str(cfg_path),
            "--set", "iterations=1",
            "--set", "episodes_per_iter=2",
            "--set", "episode_length=16",
            "--out", str(out),
        ])
        assert rc == 0
        assert (out / "dataset.jsonl").exists()

    def test_corridor_config_validates(self):
        from voxhunt.config import TrainConfig

        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "corridor_sanity.json"
        cfg = TrainConfig.from_json_file(cfg_path)
        assert cfg.validate() == []


def _child_env():
    """Environment for a child interpreter that imports this voxhunt.

    The source root goes in front as an absolute path, so the child finds the
    package from any working directory and never a different installed copy.
    """
    env = os.environ.copy()
    src = str(Path(voxhunt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestSubprocessEntry:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voxhunt.cli", "--help"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "train" in proc.stdout and "triage" in proc.stdout

    def test_triage_pass_leaves_numpy_ma_unimported(self, quick_config, tmp_path):
        # numpy 2.4 imports numpy.ma inside a plain np.unique (and so inside
        # np.percentile): about 1.3 MB and 19 ms of every triage process.
        run = tmp_path / "run"
        assert main(["train", "--config", str(quick_config), "--out", str(run)]) == 0
        child = """if True:
            import json, sys
            from voxhunt.cli import main
            assert main(["triage", sys.argv[1]]) == 0
            ma = "numpy.ma" in sys.modules
            import numpy as np
            from voxhunt.config import TrainConfig, resolve_path
            from voxhunt.mapio import load_map
            from voxhunt.trainer import TrajectoryLog
            from voxhunt.world import Physics
            cfg = TrainConfig.from_run_dir(sys.argv[1])
            physics = Physics(load_map(resolve_path(cfg.map_path)))
            records = TrajectoryLog.read(sys.argv[1] + "/dataset.jsonl")
            cells = physics.replay([r["actions"] for r in records]).cell
            print(json.dumps({"ma": ma, "unique": len(np.unique(cells))}))
        """
        proc = subprocess.run(
            [sys.executable, "-c", child, str(run)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        triaged, result = map(json.loads, proc.stdout.splitlines()[-2:])
        assert result["ma"] is False
        assert triaged["coverage"] == result["unique"] > 1

    def test_validation_exit_code_in_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "voxhunt.cli", "train", "--config", "missing.json"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
        )
        assert proc.returncode == 2, proc.stderr
        assert "not found" in proc.stderr, proc.stderr
