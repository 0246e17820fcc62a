"""Command-line surface: train, triage, report, export, demo tooling and the
reward / encoding ablation harnesses.

Exit codes: 0 success, 2 validation failure (bad flags, bad config, missing
files -- reported before any side effect), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import nn, rundir
from .config import PROFILES, ConfigError, TrainConfig, resolve_path
from .imitation import check_demos, load_demos
from .mapio import load_map, read_script, save_demo_script
from .rundir import TrajectoryLog, TriageError, fresh_dir
from .trainer import TrainingDiverged, run_training
from .triage import (
    EXPORT_FIELDS,
    EXPORT_OPTIONAL,
    export_trajectories,
    read_report,
    run_triage,
    write_report,
)
from .world import MapFormatError, WorldError

VALIDATION_EXIT = 2
RUNTIME_EXIT = 1

OUT_ROOT_ENV = "VOXHUNT_OUT"

# The paper's reward comparison: (run directory, table label, config patch).
REWARD_VARIANTS = [
    ("ccpt", "CCPT", {"alpha_mode": "uniform"}),
    ("linear_combination", "Linear Combination", {"alpha_mode": "fixed", "alpha_value": 0.5}),
    ("only_imitation", "Only Imitation", {"alpha_mode": "fixed", "alpha_value": 0.0}),
    ("only_curiosity", "Only Curiosity", {"alpha_mode": "fixed", "alpha_value": 1.0}),
]
# The encoder comparison: (series name, config patch).
ENCODING_VARIANTS = [
    ("full", {"position_mode": "sinusoidal", "perception": "occupancy"}),
    ("normalized", {"position_mode": "normalized", "perception": "occupancy"}),
    ("learned", {"position_mode": "learned", "perception": "occupancy"}),
    ("global_only", {"position_mode": "sinusoidal", "perception": "none"}),
    ("raycast", {"position_mode": "sinusoidal", "perception": "raycast"}),
]


class CliValidationError(Exception):
    def __init__(self, problems):
        self.problems = problems if isinstance(problems, list) else [problems]
        super().__init__("; ".join(self.problems))


def _out_root() -> Path:
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def _load_config(args) -> TrainConfig:
    problems: list[str] = []
    if not args.config:
        raise CliValidationError("--config is required")
    if not Path(args.config).exists():
        raise CliValidationError(f"config file not found: {args.config}")
    try:
        cfg = TrainConfig.from_json_file(args.config)
    except ConfigError as e:
        raise CliValidationError(str(e)) from e
    overrides = list(args.set or [])
    if args.profile:
        overrides.append(f"profile={args.profile}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        cfg = cfg.apply_overrides(overrides)
    except ConfigError as e:
        raise CliValidationError(str(e)) from e
    problems.extend(cfg.validate())
    if problems:
        raise CliValidationError(problems)
    return cfg


def _fresh_out_dir(path: Path) -> Path:
    """``path`` when a run can be written there (see ``fresh_dir``). Anything
    else, a file included, is a validation error."""
    if not fresh_dir(path):
        raise CliValidationError(f"output path exists and is not an empty directory: {path}")
    return path


def _check_threshold(mode: str, epsilon: float | None, quantile: float | None = None) -> None:
    """Triage threshold flags, checked before a run is read or trained."""
    problems = []
    if quantile is not None and not 0.0 <= quantile <= 1.0:  # also rejects nan
        problems.append(f"--quantile must be a number in [0, 1], not {quantile}")
    if mode == "absolute" and (epsilon is None or not math.isfinite(epsilon)):
        problems.append("--mode absolute requires a finite --epsilon")
    if problems:
        raise CliValidationError(problems)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    run_dir = _fresh_out_dir(Path(args.out) if args.out else _out_root() / f"run-seed{cfg.seed}")
    result = run_training(cfg, run_dir)
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_triage(args) -> int:
    _check_threshold(args.mode, args.epsilon, args.quantile)
    report = run_triage(args.run_dir, args.mode, args.epsilon, args.quantile)
    out = write_report(args.run_dir, report)
    keys = ("epsilon", "mode", "bugs_found", "bugs_highlighted", "coverage")
    summary = {k: report[k] for k in keys}
    summary.update(theta_size=len(report["theta"]), report=str(out))
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    doc = read_report(args.run_dir)
    print(f"epsilon {doc['epsilon']} ({doc['mode']} mode)")
    print(f"highlighted trajectories: {len(doc['theta'])}")
    print(f"bugs found {doc['bugs_found']}  bugs highlighted {doc['bugs_highlighted']}")
    print(f"coverage {doc['coverage']} distinct voxels")
    theta = set(doc["theta"])
    for s in doc["scores"]:
        if s["traj_id"] in theta:
            print(
                f"  traj {s['traj_id']}: alpha={s['alpha']:.3f} "
                f"score={s['rc_avg']:.6g} bugs={s['bug_regions']}"
            )
    return 0


def cmd_export(args) -> int:
    run_dir = Path(args.run_dir)
    records = TrajectoryLog.read(run_dir / rundir.DATASET, EXPORT_FIELDS, EXPORT_OPTIONAL)
    report = None
    if args.theta_only or (run_dir / rundir.REPORT).exists():
        report = read_report(run_dir)
    only_ids = set(report["theta"]) if args.theta_only else None
    rc_by_id = {s["traj_id"]: s["rc_avg"] for s in report["scores"]} if report else {}
    demos = []
    if args.demos:
        cfg = TrainConfig.from_run_dir(run_dir)
        vmap = load_map(resolve_path(cfg.map_path))
        if cfg.demo_paths:  # map name and goal checked as training and triage check them
            loaded = load_demos([resolve_path(p) for p in cfg.demo_paths], vmap).demos
            demos = [(Path(p).stem, d.positions().tolist()) for p, d in zip(cfg.demo_paths, loaded)]
    out = Path(args.out) if args.out else run_dir / rundir.EXPORT
    n = export_trajectories(records, rc_by_id, out, only_ids=only_ids, demos=demos)
    print(json.dumps({"file": str(out), "trajectories": n}, sort_keys=True))
    return 0


def cmd_demo_record(args) -> int:
    problems = []
    if not Path(args.map).exists():
        problems.append(f"map not found: {args.map}")
    if not Path(args.actions).exists():
        problems.append(f"action list not found: {args.actions}")
    if problems:
        raise CliValidationError(problems)
    vmap = load_map(args.map)
    try:
        _, actions = read_script(args.actions)
    except MapFormatError as e:
        raise CliValidationError(str(e)) from e
    # the checks training runs on a demo file, before the file is written
    demo = check_demos([(args.actions, vmap.name, args.goal, actions)], vmap).demos[0]
    save_demo_script(args.out, vmap.name, args.goal, actions)
    summary = {"file": args.out, "map": vmap.name, "steps": len(actions)}
    summary["bug_regions_entered"] = list(demo.bug_hits()[0])
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_demo_verify(args) -> int:
    if not Path(args.map).exists():
        raise CliValidationError(f"map not found: {args.map}")
    vmap = load_map(args.map)
    failures = 0
    for demo_path in args.demos:
        try:  # each file on its own, through the checks training runs
            demo = load_demos([demo_path], vmap).demos[0]
        except WorldError as e:  # DemoError is one
            print(f"FAIL {e}")
            failures += 1
            continue
        bugs = sorted(set(demo.bug_hits()[1]))
        print(f"{demo_path}: ok, {len(demo.actions)} actions, bug_kinds={bugs}")
    return 0 if failures == 0 else RUNTIME_EXIT


def _train_variants(args, default_out: str, variants) -> Path:
    """Train one run per variant, each in ``<out>/<name>`` on the loaded config
    with the variant's patch (its last field) applied; returns ``<out>``."""
    cfg = _load_config(args)
    out_dir = _fresh_out_dir(Path(args.out) if args.out else _out_root() / default_out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, *_, patch in variants:
        run_training(TrainConfig.from_dict({**cfg.to_dict(), **patch}), out_dir / name)
    return out_dir


def _write_table(path: Path, lines: list[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    nn.write_atomic(path, text)
    print(text, end="")


def cmd_ablate_reward(args) -> int:
    _check_threshold(args.mode, args.epsilon)
    out_dir = _train_variants(args, "ablate-reward", REWARD_VARIANTS)
    lines = ["variant\tcoverage\tbugs_found\tbugs_highlighted"]
    coverage = {}
    for name, label, _ in REWARD_VARIANTS:
        report = run_triage(out_dir / name, mode=args.mode, epsilon=args.epsilon)
        write_report(out_dir / name, report)
        lines.append(
            f"{label}\t{report['coverage']}\t{report['bugs_found']}\t{report['bugs_highlighted']}"
        )
        coverage[name] = report["coverage"]
    if coverage["only_imitation"] >= coverage["ccpt"]:
        lines.append(
            "# note: expected Only Imitation coverage < CCPT coverage, observed "
            f"{coverage['only_imitation']} vs {coverage['ccpt']}"
        )
    _write_table(out_dir / "reward_ablation.tsv", lines)
    return 0


def cmd_ablate_encoding(args) -> int:
    out_dir = _train_variants(args, "ablate-encoding", ENCODING_VARIANTS)
    lines = ["series\tsteps\tcoverage"]
    finals = {}
    for name, _ in ENCODING_VARIANTS:
        for rec in TrajectoryLog.read(out_dir / name / rundir.METRICS):
            lines.append(f"{name}\t{rec['env_steps']}\t{rec['coverage']}")
            finals[name] = rec["coverage"]
    if finals.get("full", 0) < finals.get("normalized", 0):
        lines.append(
            "# note: expected full >= normalized final coverage, observed "
            f"{finals.get('full')} vs {finals.get('normalized')}"
        )
    _write_table(out_dir / "coverage_series.tsv", lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="voxhunt",
        description="Train exploring playtest agents on voxel maps and triage "
        "the trajectories they collect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--profile", choices=list(PROFILES), help="architecture profile")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="dotted config override, e.g. --set ppo.lr=1e-4",
        )
        p.add_argument("--out", help="output directory (default under $VOXHUNT_OUT)")

    p = sub.add_parser("train", help="run a full training loop")
    add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("triage", help="filter and score a finished run")
    p.add_argument("run_dir")
    p.add_argument("--mode", choices=["absolute", "quantile"], default="quantile")
    p.add_argument("--epsilon", type=float, help="threshold for absolute mode")
    p.add_argument("--quantile", type=float, default=0.90)
    p.set_defaults(func=cmd_triage)

    p = sub.add_parser("report", help="print a finished run's triage report")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="write trajectories as columnar text")
    p.add_argument("run_dir")
    p.add_argument("--out")
    p.add_argument("--theta-only", action="store_true", help="only highlighted trajectories")
    p.add_argument("--demos", action="store_true", help="append replayed demos with a demo tag")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("demo-record", help="validate an action list and write a demo file")
    p.add_argument("--map", required=True)
    p.add_argument("--goal", type=int, default=0)
    p.add_argument("--actions", required=True, help="text file, one action name per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo_record)

    p = sub.add_parser("demo-verify", help="replay demo files against a map")
    p.add_argument("--map", required=True)
    p.add_argument("demos", nargs="+")
    p.set_defaults(func=cmd_demo_verify)

    p = sub.add_parser("ablate-reward", help="compare against fixed-dial baselines")
    add_config_flags(p)
    p.add_argument("--mode", choices=["absolute", "quantile"], default="quantile")
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=cmd_ablate_reward)

    p = sub.add_parser("ablate-encoding", help="coverage series for encoder variants")
    add_config_flags(p)
    p.set_defaults(func=cmd_ablate_encoding)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliValidationError as e:
        for problem in e.problems:
            print(f"error: {problem}", file=sys.stderr)
        return VALIDATION_EXIT
    except (ConfigError, TriageError, WorldError, FileExistsError, nn.ParamsFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_EXIT
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
