"""Self-test of the output checks: each must pass real outputs and reject a
corrupted copy.

    python3 benchmark/selftest.py

Trains one quickstart iteration and triages a generated run directory (about
20 s), checks both, then feeds every check a copy with one planted fault and
expects it to be rejected for that fault. Last, it hides two traced functions
and expects the tracer to list them as absent. Exits 1 if any corruption
slips through or a real output fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen_triage  # noqa: E402

WORK = BENCH / ".work" / "selftest"


def train_once(run_dir: Path) -> dict:
    from voxhunt.config import TrainConfig
    from voxhunt.trainer import Trainer

    cfg = TrainConfig.from_json_file(ROOT / "configs" / "quickstart.json").apply_overrides(["iterations=1"])
    Trainer(cfg, run_dir).run()
    return cfg.to_dict()


def rewrite_dataset(run_dir: Path, edit) -> None:
    path = run_dir / "dataset.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records = edit(records)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def remix(rec: dict) -> dict:
    """Recompute R so that only the planted fault is wrong."""
    a = rec["alpha"]
    rec["R"] = [a * c + (1.0 - a) * i + e for c, i, e in zip(rec["rc_norm"], rec["ri"], rec["re"])]
    return rec


def goal_free_step(rec: dict, truth: checks.MapTruth) -> int:
    flags = truth.goal_flags(np.asarray(rec["positions"]))
    return int(np.flatnonzero(~flags[1:])[0])


def train_cases(truth: checks.MapTruth):
    """(name, expected message fragment, dataset edit or None, metrics edit or None)."""

    def one(fn):
        def edit(records):
            records[3] = fn(copy.deepcopy(records[3]))
            return records
        return edit

    def perturb_r(r):
        r["R"][5] += 1e-9
        return r

    def ri_high(r):
        r["ri"][7] = 1.5
        return remix(r)

    def rc_negative(r):
        r["rc_raw"][2] = -1e-6
        return r

    def alpha_high(r):
        r["alpha"] = 1.25
        return remix(r)

    def re_off_goal(r):
        r["re"][goal_free_step(r, truth)] = 10.0
        return remix(r)

    def first_goal_shift(r):
        r["first_goal"] = 1 if r["first_goal"] is None else r["first_goal"] + 1
        return r

    def into_wall(r):
        r["positions"][4] = [10, 1, 3]  # the east wall, outside every bug region
        return r

    def drop_bug(r):
        r["bug_regions"] = []
        r["positions"][6] = [10, 1, 5]  # enters the missing-collision region
        return r

    def bad_env_steps(lines):
        m = json.loads(lines[0])
        m["env_steps"] += 1
        return [json.dumps(m)]

    def nan_metric(lines):
        m = json.loads(lines[0])
        m["mean_R"] = float("nan")
        return [json.dumps(m)]

    return [
        ("perturbed R entry", "mix gives", one(perturb_r), None),
        ("ri above 1", "ri outside", one(ri_high), None),
        ("negative rc_raw", "negative rc_raw", one(rc_negative), None),
        ("alpha above 1", "alpha", one(alpha_high), None),
        ("goal reward off the goal", "re[", one(re_off_goal), None),
        ("shifted first_goal", "first_goal", one(first_goal_shift), None),
        ("position inside a wall", "solid voxel", one(into_wall), None),
        ("bug entry not recorded", "bug_regions", one(drop_bug), None),
        ("dropped record", "records, want", lambda rs: rs[:-1], None),
        ("non-contiguous ids", "id/iter/ep", lambda rs: [rs[1], rs[0]] + rs[2:], None),
        ("wrong env_steps", "env_steps", None, bad_env_steps),
        ("non-finite metric", "mean_R", None, nan_metric),
    ]


def triage_cases(truth: checks.TriageTruth, report: dict):
    theta = report["theta"]
    goal_ids = [s["traj_id"] for s in report["scores"] if s["rc_avg"] is not None]
    miss_id = next(s["traj_id"] for s in report["scores"] if s["rc_avg"] is None)
    outside = next(
        rid for rid in goal_ids if rid not in theta and truth.alpha[rid] < 0.5
    )

    def on_score(rid, fn):
        def edit(r):
            for s in r["scores"]:
                if s["traj_id"] == rid:
                    fn(s)
            return r
        return edit

    def setkey(key, fn):
        def edit(r):
            r[key] = fn(r[key])
            return r
        return edit

    return [
        ("tampered score", "rc_avg", on_score(goal_ids[0], lambda s: s.update(rc_avg=s["rc_avg"] * 1.001))),
        ("score on a trajectory that misses the goal", "never reaches", on_score(miss_id, lambda s: s.update(rc_avg=0.5))),
        ("shifted first_goal", "first_goal", on_score(goal_ids[1], lambda s: s.update(first_goal=s["first_goal"] + 1))),
        ("dropped theta member", "in theta=False", setkey("theta", lambda t: t[1:])),
        ("low-dial id added to theta", "in theta=True", setkey("theta", lambda t: sorted(t + [outside]))),
        ("moved epsilon", "epsilon", setkey("epsilon", lambda e: e * 1.01)),
        ("tampered demo score", "demo scores", setkey("demo_scores", lambda d: [d[0] + 1e-6] + d[1:])),
        ("highlighted region not found", "subset", lambda r: {**r, "bugs_highlighted_regions": sorted(set(r["bugs_highlighted_regions"]) | {99})}),
        ("missing found region", "bugs_found_regions", setkey("bugs_found_regions", lambda b: b[1:])),
        ("coverage off by one", "coverage", setkey("coverage", lambda c: c + 1)),
    ]


def tracer_reports_absent() -> bool:
    """A traced name the program no longer defines is listed, not fatal."""
    from voxhunt import policy
    from tracer import Tracer

    gone = ("policy.ObsNet.backward", "policy.compute_gae")
    saved_method = policy.ObsNet.__dict__["backward"]
    saved_function = policy.compute_gae
    del policy.ObsNet.backward, policy.compute_gae
    try:
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        policy.ObsNet.backward = saved_method
        policy.compute_gae = saved_function
    metrics = tracer.summary(ops=1)["metrics"]
    ok = set(gone) <= set(tracer.absent) and metrics["policy.compute_gae.calls"] == 0.0
    print(f"{'ok   ' if ok else 'FAIL '} tracer lists removed names as absent: {tracer.absent}")
    return ok


def expect_rejected(name: str, fragment: str, check) -> bool:
    try:
        check()
    except checks.CheckError as e:
        if fragment in str(e):
            print(f"ok    rejects {name}: {e}")
            return True
        print(f"FAIL  {name}: rejected for another reason: {e}")
        return False
    print(f"FAIL  {name}: accepted")
    return False


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ok = True

    real = WORK / "train"
    cfg = train_once(real)
    truth = checks.MapTruth(checks.fixture_file(ROOT, cfg["map_path"]))
    shape = (1, cfg["episodes_per_iter"], cfg["episode_length"])
    checks.check_train_run(real, truth, *shape)
    print("ok    real training run passes")
    for k, (name, fragment, data_edit, metrics_edit) in enumerate(train_cases(truth)):
        bad = WORK / f"train-bad{k}"
        shutil.copytree(real, bad)
        if data_edit:
            rewrite_dataset(bad, data_edit)
        if metrics_edit:
            path = bad / "metrics.jsonl"
            path.write_text("\n".join(metrics_edit(path.read_text().splitlines())) + "\n")
        ok &= expect_rejected(name, fragment, lambda: checks.check_train_run(bad, truth, *shape))

    from voxhunt import cli

    gen_triage.generate(seed=0, out=WORK / "triage")
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["triage", str(WORK / "triage" / "run")]) != 0:
            print("FAIL  voxhunt triage exited non-zero")
            return 1
    ttruth = checks.TriageTruth(WORK / "triage", ROOT)
    report = json.loads((WORK / "triage" / "run" / "triage_report.json").read_text())
    checks.check_triage_report(report, ttruth)
    print(f"ok    real triage report passes ({len(report['theta'])} highlighted)")
    for name, fragment, edit in triage_cases(ttruth, report):
        bad = edit(copy.deepcopy(report))
        ok &= expect_rejected(name, fragment, lambda: checks.check_triage_report(bad, ttruth))

    ok &= tracer_reports_absent()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
