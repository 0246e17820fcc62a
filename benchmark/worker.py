"""One workload process: set up the program, then run operations for a while.

Started by run.py, never by hand. With --role setup it stops once the first
operation could run; with --role main it runs whole operations until
--seconds have passed, and with --trace 1 it runs an untraced half and then
a traced half. Between untraced operations the main process starts a setup
probe every SETUP_PROBE_EVERY_S seconds. It writes its figures to --result
as JSON.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAIN_ITERATIONS_PER_ROUND = 2
SETUP_PROBE_EVERY_S = 5.0
SETUP_PROBE_TIMEOUT_S = 60.0
PR_SET_PDEATHSIG = 1
PR_SET_THP_DISABLE = 41


def prctl(option: int, value: int) -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def setup_probe(args) -> float:
    """Set the workload up in a fresh interpreter; return its set-up time.

    The machine's speed drifts in phases of tens of seconds, so probes spread
    over the whole run give a steadier median than probes made back to back.
    """
    result = args.work / f"setup-{time.monotonic_ns()}.json"
    subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--role", "setup", "--seed", str(args.seed),
            "--work", str(args.work), "--t0", repr(time.perf_counter()), "--result", str(result),
        ],
        check=True,
        timeout=SETUP_PROBE_TIMEOUT_S,
        stdout=sys.stderr,
    )
    setup_s = json.loads(result.read_text())["setup_s"]
    result.unlink()
    return setup_s


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import voxhunt

    if Path(voxhunt.__file__).resolve().parent != ROOT / "src" / "voxhunt":
        raise SystemExit(f"voxhunt imported from {voxhunt.__file__}, not this checkout")


class TrainWorkload:
    """train_area1: Trainer.run() over configs/quickstart.json in rounds."""

    def __init__(self, seed: int, work: Path):
        import_program()
        from voxhunt.config import TrainConfig
        from voxhunt.trainer import Trainer

        self.Trainer = Trainer
        base = TrainConfig.from_json_file(ROOT / "configs" / "quickstart.json")
        self.cfg = base.apply_overrides([f"iterations={TRAIN_ITERATIONS_PER_ROUND}", f"seed={seed}"])
        self.work = work
        self.rounds = 0
        self.trainer = self._new_trainer()

    def _new_trainer(self):
        # The pid keeps a setup probe's Trainer out of the main process's runs.
        return self.Trainer(self.cfg, self.work / f"round-{os.getpid()}-{self.rounds:03d}")

    def round(self) -> dict:
        """One round: a fresh Trainer runs TRAIN_ITERATIONS_PER_ROUND iterations."""
        cfg = self.cfg
        trainer = self.trainer or self._new_trainer()
        self.trainer = None
        t0 = time.perf_counter()
        out = {"dir": str(trainer.run_dir), "ops": cfg.iterations, "failed": 0}
        try:
            summary = trainer.run()
            if summary["env_steps"] != cfg.iterations * cfg.episodes_per_iter * cfg.episode_length:
                raise RuntimeError(f"run reports {summary['env_steps']} env steps")
        except Exception:
            traceback.print_exc()
            out["failed"] = cfg.iterations
        out["seconds"] = time.perf_counter() - t0
        out["env_steps"] = cfg.iterations * cfg.episodes_per_iter * cfg.episode_length
        out["trajectories"] = cfg.iterations * cfg.episodes_per_iter
        self.rounds += 1
        return out


class TriageWorkload:
    """triage_area1: `voxhunt triage RUN_DIR` through voxhunt.cli.main."""

    def __init__(self, seed: int, work: Path):
        import_program()
        from voxhunt import cli

        self.cli = cli
        self.run_dir = work / "input" / "run"
        props = json.loads((work / "input" / "input.json").read_text())
        self.records = props["records"]
        self.env_steps = props["env_steps"]

    def round(self) -> dict:
        report = self.run_dir / "triage_report.json"
        report.unlink(missing_ok=True)
        out = {"ops": 1, "failed": 0}
        printed = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                rc = self.cli.main(["triage", str(self.run_dir)])
        except Exception:
            traceback.print_exc()
            rc = -1
        out["seconds"] = time.perf_counter() - t0
        if rc != 0 or not report.exists():
            out["failed"] = 1
        else:
            out["report_sha256"] = hashlib.sha256(report.read_bytes()).hexdigest()
            out["printed"] = printed.getvalue().strip().splitlines()[-1]
        out["env_steps"] = self.env_steps
        out["trajectories"] = self.records
        return out


WORKLOADS = {"train_area1": TrainWorkload, "triage_area1": TriageWorkload}


def run_rounds(workload, seconds: float, tracer=None, probe=None) -> list[dict]:
    """Run whole rounds for `seconds`; `probe` runs now and then between them.

    The time a probe takes is added to the run, so probes cost no rounds.
    """
    rounds: list[dict] = []
    t_end = time.perf_counter() + seconds
    next_probe = time.perf_counter() + SETUP_PROBE_EVERY_S
    op = 0
    while not rounds or time.perf_counter() < t_end:
        span = tracer.begin_op(op) if tracer else None
        r = workload.round()
        if tracer:
            tracer.end_op(span)
        op += r["ops"]
        rounds.append(r)
        if probe and time.perf_counter() >= next_probe:
            t0 = time.perf_counter()
            probe()
            t_end += time.perf_counter() - t0
            next_probe = time.perf_counter() + SETUP_PROBE_EVERY_S
    return rounds


def blas_version() -> str:
    import numpy as np

    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--role", choices=["setup", "main"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's perf_counter at spawn")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    if args.role == "setup":
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)  # a probe never outlives its main process
    # numpy marks arrays of 4 MB and more for transparent huge pages. Whether
    # a fault gets one, and whether khugepaged later fills a sparsely used
    # region (the 34 MB discriminator replay buffer) up to whole 2 MB pages,
    # depends on the host, so peak RSS read up to 37 MB higher in some runs of
    # the same code. Opted out, this process counts only the pages it touches.
    huge_pages_off = prctl(PR_SET_THP_DISABLE, 1)
    workload = WORKLOADS[args.workload](args.seed, args.work)
    t_ready = time.perf_counter()
    result = {"setup_s": t_ready - args.t0}
    if args.role == "main":
        import numpy as np

        result["numpy"] = np.__version__
        result["blas"] = blas_version()
        result["huge_pages_off"] = huge_pages_off
        if args.trace:
            from tracer import Tracer

            result["rounds"] = run_rounds(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced = run_rounds(workload, args.seconds / 2, tracer)
            tracer.uninstall()
            result["traced_rounds"] = traced
            ops = sum(r["ops"] for r in traced)
            result["trace"] = tracer.summary(ops)
            trace_path = args.work / "trace.npz"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path)
        else:
            setups = result["setup_probes"] = []
            result["rounds"] = run_rounds(
                workload, args.seconds, probe=lambda: setups.append(setup_probe(args))
            )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
