"""Post-training trajectory triage.

Scores every stored trajectory with the *final* curiosity networks (raw
prediction error, never the normalized copy), keeps goal-reaching
trajectories collected with an exploration dial of at least 0.5 whose average
score beats a threshold, and intersects the kept set with the map's planted
bug regions.

The average runs over states s_0..s_T where T is the number of steps to the
first goal entry, and divides by T as collected-data convention (one more
term than divisor; rankings are unaffected for a given T). Trajectories are
re-encoded by replaying their stored actions through the deterministic
simulator, so triage needs only the run directory, never the training
process.

Triage reads only the dataset fields ``id``, ``alpha``, ``actions`` and
``positions`` (TRIAGE_FIELDS); the reader drops every other field, the
per-step reward lists among them, line by line. A record that lacks one of
the four, stores an action that is not an action id (an int in 0..9), or
does not hold one more position than actions is a TriageError naming the
record. Triage then replays all records and the demos in one
lockstep simulator call and checks each record against its stored positions.

A state's novelty depends on the state alone, and goal prefixes share most
of their states. The replay's goal-prefix states are numbered in one
run-wide table of distinct states, in first-seen order (records first, then
demos), and the encoder reads each distinct state once, straight from the
replay's arrays. The table is scored once, in RND calls no larger than one
episode. Each score sums its prefix's per-state values in prefix order, so
it equals scoring each trajectory on its own, state by state; the tests
check this bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .config import TrainConfig, resolve_path
from .curiosity import RNDPair
from .encode import ObservationEncoder, PEConfig, agent_info
from .imitation import load_demos
from .mapio import load_map
from .trainer import TrajectoryLog, TriageError
from .world import Action, Physics, PhysicsError, Trajectory, VoxelMap

REPORT_FORMAT_VERSION = 1
EXPORT_FORMAT_VERSION = 1

# The dataset fields each pass reads (TrajectoryLog.read drops the rest,
# the per-step reward lists among them, line by line). A record missing one is
# an error, except export's optional bug_regions.
TRIAGE_FIELDS = ("id", "alpha", "actions", "positions")
EXPORT_FIELDS = ("id", "alpha", "reached_goal", "positions")
EXPORT_OPTIONAL = ("bug_regions",)


@dataclass
class TrajectoryScore:
    traj_id: int
    alpha: float
    reached_goal: bool
    first_goal: int | None  # T: steps to first goal entry
    rc_avg: float | None  # None when the trajectory never reaches a goal
    bug_regions: tuple[int, ...] = ()
    demo: bool = False


@dataclass
class TriageReport:
    epsilon: float
    mode: str
    theta: list[int]
    scores: list[TrajectoryScore]
    bugs_found: int
    bugs_highlighted: int
    bugs_found_regions: list[int]
    bugs_highlighted_regions: list[int]
    per_kind_found: dict[str, int]
    per_kind_highlighted: dict[str, int]
    coverage: int
    demo_scores: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"format_version": REPORT_FORMAT_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def _ints(values) -> bool:
    return set(map(type, values)) <= {int}  # a bool is not an int here


# What each dataset field a pass reads must hold, and the test for it.
FIELD_TYPES = {
    "id": ("an int", lambda v: type(v) is int),
    "alpha": ("a real number", lambda v: type(v) in (int, float)),
    "reached_goal": ("a bool", lambda v: type(v) is bool),
    "positions": (
        "a list of [x, y, z] int lists",
        lambda v: type(v) is list
        and set(map(type, v)) <= {list}
        and set(map(len, v)) <= {3}
        and _ints(chain.from_iterable(v)),
    ),
    "bug_regions": ("a list of ints", lambda v: type(v) is list and _ints(v)),
}


def check_fields(records: list[dict], fields: tuple[str, ...], path: str | Path) -> None:
    """TriageError naming the first record that lacks one of ``fields``, or
    holds a value of the wrong type in a field of FIELD_TYPES: by its id, or
    by its place among the file's records when the id is missing or bad."""
    for i, rec in enumerate(records, start=1):
        name = f"trajectory {rec['id']}" if type(rec.get("id")) is int else f"record {i}"
        missing = [k for k in fields if k not in rec]
        if missing:
            raise TriageError(f"{path}: {name}: missing field {', '.join(missing)}")
        for key, value in rec.items():
            if key in FIELD_TYPES and not FIELD_TYPES[key][1](value):
                raise TriageError(f"{path}: {name}: field {key} is not {FIELD_TYPES[key][0]}")


def record_actions(record: dict) -> list[int]:
    """A stored record's action ids. TriageError names the record if an
    action is not an int in 0..9 (a bool is not), or if the record does not
    hold exactly one more position than actions."""
    rid = record.get("id")
    actions, positions = record.get("actions"), record.get("positions")
    if not isinstance(actions, list) or not isinstance(positions, list):
        raise TriageError(f"trajectory {rid}: actions and positions must be lists")
    if not set(map(type, actions)) <= {int} or (
        actions and not 0 <= min(actions) <= max(actions) < len(Action)
    ):
        bad = next(a for a in actions if type(a) is not int or not 0 <= a < len(Action))
        raise TriageError(
            f"trajectory {rid}: stored action {bad!r} is not an action id 0..{len(Action) - 1}"
        )
    if len(positions) != len(actions) + 1:
        raise TriageError(
            f"trajectory {rid}: {len(positions)} positions for {len(actions)} actions"
        )
    return actions


def score_records(
    records: list[dict],
    vmap: VoxelMap,
    rnd: RNDPair,
    encoder: ObservationEncoder,
    demo_scripts: list[list[int]],
    max_rows: int,
) -> tuple[list[TrajectoryScore], list[float], int]:
    """Replay every record and demo script in one lockstep batch, check each
    record against its stored positions, then score the records and the
    demos from one table of their distinct goal-prefix states.

    Each distinct state is scored once, in RND calls of at most ``max_rows``
    rows. Returns (record scores, demo scores, distinct replayed positions).
    """
    physics = Physics(vmap)
    scripts = [record_actions(rec) for rec in records]
    try:
        replay = physics.replay(scripts + demo_scripts)
    except PhysicsError as e:
        if e.agent is not None and e.agent < len(records):
            raise TriageError(f"trajectory {records[e.agent].get('id')}: {e}") from e
        raise
    n = len(records)
    for i, rec in enumerate(records):
        replayed = physics.positions(replay.cell[: len(scripts[i]) + 1, i])
        if replayed.tolist() != rec["positions"]:
            raise TriageError(f"trajectory {rec.get('id')}: replay diverged from stored positions")

    ends = replay.first_goal()
    t, script, ids = replay.state_table(ends)

    def curiosity(a: int, b: int) -> np.ndarray:
        """Raw curiosity of distinct states a..b-1 (position code + agent info)."""
        pos, prev, *flags = replay.rows(t[a:b], script[a:b])
        inputs = {"pos": encoder.position_code(pos), "info": agent_info(pos - prev, *flags)}
        return rnd.raw_reward(inputs)

    # Calls of near-equal size, so none has one row unless the table does:
    # numpy hands a one-row product to gemv, which rounds differently from
    # the gemm that a multi-row call runs.
    rc = np.zeros(0)
    if len(t):
        calls = -(-len(t) // max_rows)
        edges = [len(t) * i // calls for i in range(calls + 1)]
        rc = np.concatenate([curiosity(a, b) for a, b in zip(edges, edges[1:])])
    starts = np.concatenate([[0], np.cumsum(ends + 1)]).tolist()
    averages = [
        float(rc[ids[a:b]].sum() / max(end, 1)) if end >= 0 else None
        for a, b, end in zip(starts, starts[1:], ends.tolist())
    ]

    entered = replay.entered()[:n]
    scores = [
        TrajectoryScore(
            traj_id=int(rec["id"]),
            alpha=float(rec["alpha"]),
            reached_goal=end >= 0,
            first_goal=end if end >= 0 else None,
            rc_avg=rc_avg,
            bug_regions=physics.bug_hits(mask, 0)[0],
        )
        for rec, end, rc_avg, mask in zip(records, ends.tolist(), averages, entered.tolist())
    ]
    demo_scores = [v for v in averages[n:] if v is not None]
    # A mask, not np.unique: numpy 2.4's plain np.unique imports numpy.ma.
    seen = np.zeros(physics.size, dtype=bool)
    seen[replay.cell[:, :n]] = True
    return scores, demo_scores, int(np.count_nonzero(seen))


def compute_epsilon(
    scores: list[TrajectoryScore],
    demo_scores: list[float],
    mode: str,
    value: float | None = None,
    quantile: float = 0.90,
) -> float:
    """Absolute mode passes the user threshold through; quantile mode places it
    at the given percentile of the low-exploration reference scores (replayed
    demos plus goal-reaching trajectories with dial < 0.5)."""
    if mode == "absolute":
        if value is None:
            raise TriageError("absolute mode requires an epsilon value")
        return float(value)
    if mode != "quantile":
        raise TriageError(f"unknown epsilon mode {mode!r}")
    reference = list(demo_scores)
    reference.extend(
        s.rc_avg for s in scores if s.alpha < 0.5 and s.reached_goal and s.rc_avg is not None
    )
    if not reference:
        raise TriageError("quantile mode needs demo or low-dial reference scores")
    if not 0.0 <= quantile <= 1.0:
        raise TriageError(f"quantile {quantile} is not in [0, 1]")
    return percentile(reference, quantile * 100.0)


def percentile(values: list[float], q: float) -> float:
    """``np.percentile(values, q)`` with its default linear method, bit for
    bit, for q in [0, 100] (a tie of 0.0 and -0.0 may take either sign).
    numpy 2.4's own percentile calls np.unique, which imports numpy.ma
    (about 1.3 MB and 19 ms per process)."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    index = (len(ordered) - 1) * (q / 100)
    if index >= len(ordered) - 1:
        return float(ordered[-1])
    lo = math.floor(index)
    a, b = ordered[lo], ordered[lo + 1]
    gamma = index - lo
    return float(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


def filter_theta(scores: list[TrajectoryScore], epsilon: float) -> list[int]:
    """Kept ids: dial >= 0.5, goal reached, average curiosity above epsilon."""
    return [
        s.traj_id
        for s in scores
        if s.alpha >= 0.5 and s.reached_goal and s.rc_avg is not None and s.rc_avg > epsilon
    ]


def evaluate_bugs(
    scores: list[TrajectoryScore],
    theta: list[int],
    vmap: VoxelMap,
    epsilon: float,
    mode: str,
    total_coverage: int,
    demo_scores: list[float] | None = None,
) -> TriageReport:
    theta_set = set(theta)
    found: set[int] = set()
    highlighted: set[int] = set()
    for s in scores:
        found.update(s.bug_regions)
        if s.traj_id in theta_set:
            highlighted.update(s.bug_regions)
    per_kind_found: dict[str, int] = {}
    per_kind_high: dict[str, int] = {}
    for i, bug in enumerate(vmap.bugs):
        if i in found:
            per_kind_found[bug.kind] = per_kind_found.get(bug.kind, 0) + 1
        if i in highlighted:
            per_kind_high[bug.kind] = per_kind_high.get(bug.kind, 0) + 1
    return TriageReport(
        epsilon=epsilon,
        mode=mode,
        theta=sorted(theta_set),
        scores=scores,
        bugs_found=len(found),
        bugs_highlighted=len(highlighted),
        bugs_found_regions=sorted(found),
        bugs_highlighted_regions=sorted(highlighted),
        per_kind_found=per_kind_found,
        per_kind_highlighted=per_kind_high,
        coverage=total_coverage,
        demo_scores=list(demo_scores or []),
    )


def run_triage(
    run_dir: str | Path,
    mode: str = "quantile",
    epsilon: float | None = None,
    quantile: float = 0.90,
) -> TriageReport:
    """Pure post-process over a finished run directory."""
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    data_path = run_dir / "dataset.jsonl"
    ckpt_dir = run_dir / "checkpoints"
    for p in (cfg_path, data_path, ckpt_dir / "rnd_target.vxnp", ckpt_dir / "rnd_predictor.vxnp"):
        if not p.exists():
            raise TriageError(f"missing run artifact: {p}")
    cfg = TrainConfig.from_run_dir(run_dir)
    vmap = load_map(resolve_path(cfg.map_path))
    profile = cfg.net_profile()
    encoder = ObservationEncoder(vmap, L=profile.L, pe=PEConfig(d=profile.pe_d))

    rng = np.random.default_rng(0)
    rnd = RNDPair(profile, cfg.curiosity, rng, rng)
    rnd.target.load(ckpt_dir / "rnd_target.vxnp")
    rnd.predictor.load(ckpt_dir / "rnd_predictor.vxnp")

    records = TrajectoryLog.read(data_path, fields=TRIAGE_FIELDS)
    if not records:
        raise TriageError(f"{data_path} holds no trajectories")
    check_fields(records, TRIAGE_FIELDS, data_path)
    demos = []
    if cfg.demo_paths:
        demos = load_demos([resolve_path(p) for p in cfg.demo_paths], vmap).demos
    scores, demo_scores, total_cov = score_records(
        records, vmap, rnd, encoder,
        [demo.actions for demo in demos], max_rows=cfg.episode_length + 1,
    )

    eps = compute_epsilon(scores, demo_scores, mode, value=epsilon, quantile=quantile)
    theta = filter_theta(scores, eps)
    return evaluate_bugs(scores, theta, vmap, eps, mode, total_cov, demo_scores)


def read_report(run_dir: str | Path) -> dict:
    """A finished run's ``triage_report.json``; TriageError names the path if
    the file is missing or torn."""
    path = Path(run_dir) / "triage_report.json"
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as e:
        raise TriageError(f"no triage report at {path}; run `voxhunt triage` first") from e
    except json.JSONDecodeError as e:
        raise TriageError(f"{path}: torn or malformed report ({e.msg})") from e
    if not isinstance(doc, dict) or doc.get("format_version") != REPORT_FORMAT_VERSION:
        raise TriageError(f"{path}: not a format {REPORT_FORMAT_VERSION} triage report")
    return doc


def export_trajectories(
    records: list[dict],
    rc_by_id: dict[int, float | None],
    path: str | Path,
    only_ids: set[int] | None = None,
    demos: list[tuple[str, Trajectory, float | None]] | None = None,
) -> int:
    """Columnar text export: a metadata header line per trajectory followed by
    one `id t x y z` row per position. ``rc_by_id`` maps trajectory ids to
    their triage score."""
    n = 0
    with open(path, "w") as fh:
        fh.write(f"# format_version {EXPORT_FORMAT_VERSION}\n")
        fh.write("# columns: id t x y z\n")
        for rec in records:
            tid = int(rec["id"])
            if only_ids is not None and tid not in only_ids:
                continue
            score = rc_by_id.get(tid)
            bugs = ",".join(str(b) for b in rec.get("bug_regions", [])) or "-"
            fh.write(
                f"# trajectory id={tid} alpha={rec['alpha']} "
                f"score={'' if score is None else score} reached_goal={int(bool(rec['reached_goal']))} bugs={bugs} demo=0\n"
            )
            for t, p in enumerate(rec["positions"]):
                fh.write(f"{tid} {t} {p[0]} {p[1]} {p[2]}\n")
            n += 1
        for name, traj, score in demos or []:
            fh.write(
                f"# trajectory id={name} alpha= score={'' if score is None else score} "
                f"reached_goal={int(traj.reached_goal)} bugs=- demo=1\n"
            )
            for t, p in enumerate(traj.positions):
                fh.write(f"{name} {t} {p[0]} {p[1]} {p[2]}\n")
            n += 1
    return n
