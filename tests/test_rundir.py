"""The run directory has one definition, ``voxhunt.rundir``: its file names
are spelled nowhere else in the package, and a run writes exactly them."""

import re
from pathlib import Path

import voxhunt
from voxhunt import rundir, trainer
from voxhunt.config import TrainConfig
from voxhunt.mapio import fixture_path
from voxhunt.triage import run_triage, write_report

SRC = Path(voxhunt.__file__).parent
FILE_NAMES = (
    "config.json", "manifest.json", "dataset.jsonl", "dataset.index", "metrics.jsonl",
    "timing.json", "diagnostics.json", "triage_report.json", "trajectories.tsv", "checkpoints",
    "policy.vxnp", "critic.vxnp", "discriminator.vxnp", "rnd_target.vxnp", "rnd_predictor.vxnp",
)
# A run-directory file name as a string literal, or any literal naming a
# checkpoint or log file.
QUOTED = re.compile(
    "|".join(f"[\"']{re.escape(name)}[\"']" for name in FILE_NAMES)
    + r"|[\"'][\w./{}]*\.(?:vxnp|jsonl)[\"']"
)


def test_only_rundir_spells_a_run_file_name():
    spelled = {
        path.name: sorted(set(QUOTED.findall(path.read_text())))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name for name, found in spelled.items() if found} == {"rundir.py"}
    assert len(spelled["rundir.py"]) == len(FILE_NAMES) - 1  # dataset.index: index_path


def test_trainer_writes_through_the_one_log_class():
    assert trainer.TrajectoryLog is rundir.TrajectoryLog


def test_a_run_holds_the_named_files(tmp_path, area1_demo_paths):
    cfg = TrainConfig(
        map_path=str(fixture_path("testmap_area1.json")),
        demo_paths=list(area1_demo_paths),
        iterations=1,
        episodes_per_iter=2,
        episode_length=8,
    )
    run = tmp_path / "run"
    trainer.run_training(cfg, run)
    write_report(run, run_triage(run))
    written = {str(p.relative_to(run)) for p in run.rglob("*")}
    checkpoints = {f"{rundir.CHECKPOINTS}/{f}" for f in rundir.CHECKPOINT_FILES.values()}
    assert written == {
        rundir.CONFIG, rundir.MANIFEST, rundir.DATASET, rundir.METRICS, rundir.TIMING,
        rundir.REPORT, rundir.index_path(rundir.DATASET).name, rundir.CHECKPOINTS, *checkpoints,
    }
