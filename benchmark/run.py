"""voxhunt benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmark/run.py --workload train_area1 --seed 1 --seconds 30 --trace 0

Workloads (see README.md):
  train_area1   Trainer.run() on configs/quickstart.json, in rounds of two
                training iterations (10 episodes x 128 steps each)
  triage_area1  `voxhunt triage` over a run directory generated from --seed

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, and an earlier line
gives the tracing overhead. Every run also prints the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import LAYER_METRICS, STAT_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("train_area1", "triage_area1")
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


def log(kind: str, value) -> None:
    print(f"{kind} {json.dumps(value, sort_keys=True)}", flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str], env: dict[str, str], deadline: float) -> None:
    """Run a child to completion; on timeout it is killed and reaped."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark ran out of time")
    subprocess.run(cmd, env=env, check=True, timeout=remaining, stdout=sys.stderr)


def worker(env, deadline, workload, seed, work, seconds, trace) -> dict:
    result = work / "main.json"
    run_child(
        [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", workload, "--role", "main", "--seed", str(seed),
            "--work", str(work), "--seconds", str(seconds), "--trace", str(trace),
            "--t0", repr(time.perf_counter()), "--result", str(result),
        ],
        env,
        deadline,
    )
    return json.loads(result.read_text())


def rates(rounds: list[dict]) -> dict[str, float]:
    """Work over time of all successful rounds.

    The machine's speed drifts in phases of tens of seconds, so per-round
    rates are bimodal; the whole-run quotient averages the phases a run sees.
    """
    ok = [r for r in rounds if not r["failed"]]
    if not ok:
        raise RuntimeError("every operation failed; nothing to measure")
    seconds = sum(r["seconds"] for r in ok)
    return {
        "env_steps_per_s": sum(r["env_steps"] for r in ok) / seconds,
        "trajectories_per_s": sum(r["trajectories"] for r in ok) / seconds,
    }


def check_outputs(workload: str, work: Path, rounds: list[dict]) -> int:
    """Raise CheckError on a wrong output; return the number of outputs checked."""
    if workload == "train_area1":
        cfg = json.loads((ROOT / "configs" / "quickstart.json").read_text())
        truth = checks.MapTruth(checks.fixture_file(ROOT, cfg["map_path"]))
        iterations = rounds[0]["ops"]
        for r in rounds:
            if not r["failed"]:
                checks.check_train_run(
                    Path(r["dir"]), truth, iterations, cfg["episodes_per_iter"], cfg["episode_length"]
                )
        return len(rounds)
    truth = checks.TriageTruth(work / "input", ROOT)
    report_path = work / "input" / "run" / "triage_report.json"
    report = json.loads(report_path.read_text())
    checks.check_triage_report(report, truth)
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    for r in rounds:
        if r["failed"]:
            continue
        if r["report_sha256"] != digest:
            raise checks.CheckError("triage passes wrote different reports")
        printed = json.loads(r["printed"])
        if printed["theta_size"] != len(report["theta"]) or printed["epsilon"] != report["epsilon"]:
            raise checks.CheckError("the printed triage summary disagrees with the report")
    return len(rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="voxhunt benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    for need in (ROOT / "src" / "voxhunt" / "__init__.py", ROOT / "configs" / "quickstart.json"):
        if not need.exists():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a voxhunt checkout",
                  file=sys.stderr)
            return 2

    env = child_env()
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "triage_area1":
            run_child(
                [sys.executable, str(BENCH / "gen_triage.py"), "--seed", str(args.seed),
                 "--out", str(work / "input")],
                env,
                deadline,
            )
            log("input", json.loads((work / "input" / "input.json").read_text()))

        main_run = worker(env, deadline, args.workload, args.seed, work, args.seconds, args.trace)
        setups = [main_run["setup_s"]] + main_run.get("setup_probes", [])

        log("machine", {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "numpy": main_run["numpy"],
            "blas": main_run["blas"],
            "huge_pages_off": main_run["huge_pages_off"],
            "python": sys.version.split()[0],
            "threads_env": {v: env[v] for v in THREAD_VARS},
        })
        rounds = main_run["rounds"] + main_run.get("traced_rounds", [])
        attempted = sum(r["ops"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        try:
            checked = check_outputs(args.workload, work, rounds)
            correct = True
        except checks.CheckError as e:
            print(f"check failed: {e}", file=sys.stderr)
            checked, correct = 0, False
        log("ops", {"attempted": attempted, "failed": failed, "rounds": len(rounds),
                    "outputs_checked": checked, "correct": correct})

        untraced = rates(main_run["rounds"])
        if args.trace:
            trace = main_run["trace"]
            traced = rates(main_run["traced_rounds"])
            log("overhead", {
                k: {"untraced": untraced[k], "traced": traced[k],
                    "traced_minus_untraced": traced[k] - untraced[k]}
                for k in untraced
            })
            log("trace", {"spans": trace["spans"], "absent": trace["absent"],
                          "file": str(Path(main_run["trace_file"]).relative_to(ROOT))})
            if trace["train_iteration"]:
                log("train_iteration", trace["train_iteration"])
            metrics = {
                name: {"value": trace["metrics"][name], "unit": STAT_UNITS[name.rsplit(".", 1)[1]]}
                for name in LAYER_METRICS
            }
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "env_steps_per_s": {"value": untraced["env_steps_per_s"], "unit": "steps/s"},
                "trajectories_per_s": {"value": untraced["trajectories_per_s"], "unit": "traj/s"},
                "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
            }
            log("samples", {"setup_s": setups, "round_s": [r["seconds"] for r in rounds]})
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        for path in work.iterdir():  # keep only the trace
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.name != "trace.npz":
                path.unlink()
        if not any(work.iterdir()):
            work.rmdir()

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
