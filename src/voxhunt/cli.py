"""Command-line surface: train, triage, report, export, demo tooling and the
reward / encoding ablation harnesses.

Exit codes: 0 success, 2 validation failure (bad flags, bad config, missing
files -- reported before any side effect), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import nn
from .config import ConfigError, TrainConfig, resolve_path
from .imitation import DemoError, check_demos, load_demos
from .mapio import load_map, read_script, save_demo_script
from .trainer import TrainingDiverged, TrajectoryLog, run_training
from .triage import (
    EXPORT_FIELDS,
    EXPORT_OPTIONAL,
    TriageError,
    check_fields,
    export_trajectories,
    read_report,
    run_triage,
)
from .world import MapFormatError, WorldError

VALIDATION_EXIT = 2
RUNTIME_EXIT = 1

OUT_ROOT_ENV = "VOXHUNT_OUT"


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
    run_dir = Path(args.out) if args.out else _out_root() / f"run-seed{cfg.seed}"
    if run_dir.exists() and any(run_dir.iterdir()):
        raise CliValidationError(f"run directory already exists: {run_dir}")
    result = run_training(cfg, run_dir)
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_triage(args) -> int:
    _check_threshold(args.mode, args.epsilon, args.quantile)
    report = run_triage(
        args.run_dir,
        mode=args.mode,
        epsilon=args.epsilon,
        quantile=args.quantile,
    )
    out = Path(args.run_dir) / "triage_report.json"
    nn.write_atomic(out, report.to_json() + "\n")
    print(
        json.dumps(
            {
                "epsilon": report.epsilon,
                "mode": report.mode,
                "theta_size": len(report.theta),
                "bugs_found": report.bugs_found,
                "bugs_highlighted": report.bugs_highlighted,
                "coverage": report.coverage,
                "report": str(out),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_report(args) -> int:
    doc = read_report(args.run_dir)
    print(f"epsilon {doc['epsilon']} ({doc['mode']} mode)")
    print(f"highlighted trajectories: {len(doc['theta'])}")
    print(f"bugs found {doc['bugs_found']}  bugs highlighted {doc['bugs_highlighted']}")
    print(f"coverage {doc['coverage']} distinct voxels")
    for s in doc["scores"]:
        if s["traj_id"] in set(doc["theta"]):
            print(
                f"  traj {s['traj_id']}: alpha={s['alpha']:.3f} "
                f"score={s['rc_avg']:.6g} bugs={s['bug_regions']}"
            )
    return 0


def cmd_export(args) -> int:
    run_dir = Path(args.run_dir)
    data_path = run_dir / "dataset.jsonl"
    if not data_path.exists():
        raise TriageError(f"missing dataset: {data_path}")
    records = TrajectoryLog.read(data_path, fields=EXPORT_FIELDS + EXPORT_OPTIONAL)
    check_fields(records, EXPORT_FIELDS, data_path)
    report = None
    if args.theta_only or (run_dir / "triage_report.json").exists():
        report = read_report(run_dir)
    only_ids = set(report["theta"]) if args.theta_only else None
    rc_by_id = {s["traj_id"]: s["rc_avg"] for s in report["scores"]} if report else {}
    demos = []
    if args.demos:
        cfg = TrainConfig.from_run_dir(run_dir)
        vmap = load_map(resolve_path(cfg.map_path))
        if cfg.demo_paths:  # map name and goal checked as training and triage check them
            demoset = load_demos([resolve_path(p) for p in cfg.demo_paths], vmap)
            demos = [
                (Path(p).stem, d.trajectory, None) for p, d in zip(cfg.demo_paths, demoset.demos)
            ]
    out = Path(args.out) if args.out else run_dir / "trajectories.tsv"
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
    print(
        json.dumps(
            {
                "file": args.out,
                "map": vmap.name,
                "steps": len(actions),
                "bug_regions_entered": sorted(demo.trajectory.bug_regions_entered),
            },
            sort_keys=True,
        )
    )
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
        bugs = sorted(demo.trajectory.bug_kinds_entered)
        print(f"{demo_path}: ok, {len(demo.actions)} actions, bug_kinds={bugs}")
    return 0 if failures == 0 else RUNTIME_EXIT


def cmd_ablate_reward(args) -> int:
    _check_threshold(args.mode, args.epsilon)
    cfg = _load_config(args)
    out_dir = Path(args.out) if args.out else _out_root() / "ablate-reward"
    if out_dir.exists() and any(out_dir.iterdir()):
        raise CliValidationError(f"output directory already exists: {out_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)

    variants = [
        ("ccpt", {"alpha_mode": "uniform"}),
        ("linear_combination", {"alpha_mode": "fixed", "alpha_value": 0.5}),
        ("only_imitation", {"alpha_mode": "fixed", "alpha_value": 0.0}),
        ("only_curiosity", {"alpha_mode": "fixed", "alpha_value": 1.0}),
    ]
    labels = {
        "ccpt": "CCPT",
        "linear_combination": "Linear Combination",
        "only_imitation": "Only Imitation",
        "only_curiosity": "Only Curiosity",
    }
    rows = []
    for name, patch in variants:
        vcfg = TrainConfig.from_dict({**cfg.to_dict(), **patch})
        run_dir = out_dir / name
        run_training(vcfg, run_dir)
        report = run_triage(run_dir, mode=args.mode, epsilon=args.epsilon)
        nn.write_atomic(run_dir / "triage_report.json", report.to_json() + "\n")
        rows.append(
            {
                "variant": labels[name],
                "coverage": report.coverage,
                "bugs_found": report.bugs_found,
                "bugs_highlighted": report.bugs_highlighted,
            }
        )
    table_path = out_dir / "reward_ablation.tsv"
    notes = []
    by = {r["variant"]: r for r in rows}
    if by["Only Imitation"]["coverage"] >= by["CCPT"]["coverage"]:
        notes.append(
            "# note: expected Only Imitation coverage < CCPT coverage, observed "
            f"{by['Only Imitation']['coverage']} vs {by['CCPT']['coverage']}"
        )
    with open(table_path, "w") as fh:
        fh.write("variant\tcoverage\tbugs_found\tbugs_highlighted\n")
        for r in rows:
            fh.write(
                f"{r['variant']}\t{r['coverage']}\t{r['bugs_found']}\t{r['bugs_highlighted']}\n"
            )
        for note in notes:
            fh.write(note + "\n")
    print(table_path.read_text(), end="")
    return 0


def cmd_ablate_encoding(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out) if args.out else _out_root() / "ablate-encoding"
    if out_dir.exists() and any(out_dir.iterdir()):
        raise CliValidationError(f"output directory already exists: {out_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)

    variants = [
        ("full", {"position_mode": "sinusoidal", "perception": "occupancy"}),
        ("normalized", {"position_mode": "normalized", "perception": "occupancy"}),
        ("learned", {"position_mode": "learned", "perception": "occupancy"}),
        ("global_only", {"position_mode": "sinusoidal", "perception": "none"}),
        ("raycast", {"position_mode": "sinusoidal", "perception": "raycast"}),
    ]
    series_path = out_dir / "coverage_series.tsv"
    finals = {}
    with open(series_path, "w") as fh:
        fh.write("series\tsteps\tcoverage\n")
        for name, patch in variants:
            vcfg = TrainConfig.from_dict({**cfg.to_dict(), **patch})
            run_dir = out_dir / name
            run_training(vcfg, run_dir)
            for line in (run_dir / "metrics.jsonl").read_text().splitlines():
                rec = json.loads(line)
                fh.write(f"{name}\t{rec['env_steps']}\t{rec['coverage']}\n")
                finals[name] = rec["coverage"]
        if finals.get("full", 0) < finals.get("normalized", 0):
            fh.write(
                "# note: expected full >= normalized final coverage, observed "
                f"{finals.get('full')} vs {finals.get('normalized')}\n"
            )
    print(series_path.read_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxhunt",
        description="Train exploring playtest agents on voxel maps and triage "
        "the trajectories they collect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--profile", choices=["desk", "paper"], help="architecture profile")
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
    except (ConfigError, TriageError, WorldError, DemoError, FileExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_EXIT
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
