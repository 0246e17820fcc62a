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
``positions`` (TRIAGE_FIELDS) through ``TrajectoryLog.read``, as columns:
one array per scalar field, and per list field one array of every record's
values end to end with each record's count of them. When the run's
``dataset.index`` is intact and was written for the dataset's bytes, the
columns are views of it, and the records were checked as training appended
them. Otherwise the read decodes ``dataset.jsonl``, drops every other field
and checks each record as it reads it: one that lacks one of the four,
holds a value of the wrong type, or does not hold one more position than
actions is a TriageError naming the dataset and the record. Both paths give
the same columns, and export reads EXPORT_FIELDS the same way.
Triage then replays the action column and the demos in one lockstep
simulator call and compares every stored position with the replay in one
array comparison; a divergence names the first diverging record.

A state's novelty depends on the state alone, and goal prefixes share most
of their states. The replay's goal-prefix states are numbered in one
run-wide table of distinct states, in first-seen order (records first, then
demos), and the encoder reads each distinct state once, straight from the
replay's arrays. The table is scored once, in RND calls no larger than one
episode. Each score sums its prefix's per-state values in prefix order, so
it equals scoring each trajectory on its own, state by state; the tests
check this bit for bit.

The report is built as the plain JSON object that ``write_report`` writes,
and ``read_report`` returns that same shape after checking its keys and the
types of the values that ``report`` and ``export`` read.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import nn
from .config import TrainConfig, resolve_path
from .curiosity import RNDPair
from .encode import ObservationEncoder, agent_info
from .imitation import load_demos
from .mapio import load_map
from .trainer import INT, INTS, REAL, Columns, TrajectoryLog, TriageError, key_problem
from .world import Action, Physics, PhysicsError, VoxelMap

REPORT_FORMAT_VERSION = 1
EXPORT_FORMAT_VERSION = 1

# The dataset fields each pass reads (TrajectoryLog.read drops the rest and
# checks what it keeps). A record missing one is an error, except export's
# optional bug_regions.
TRIAGE_FIELDS = ("id", "alpha", "actions", "positions")
EXPORT_FIELDS = ("id", "alpha", "reached_goal", "positions")
EXPORT_OPTIONAL = ("bug_regions",)

# The keys of a format-1 report and of each of its scores. A score's
# first_goal (T, the steps to the first goal entry) and rc_avg are None when
# the trajectory never reaches a goal; demo is always false.
REPORT_KEYS = (
    "format_version", "epsilon", "mode", "theta", "scores", "bugs_found", "bugs_highlighted",
    "bugs_found_regions", "bugs_highlighted_regions", "per_kind_found", "per_kind_highlighted",
    "coverage", "demo_scores",
)
SCORE_KEYS = ("traj_id", "alpha", "reached_goal", "first_goal", "rc_avg", "bug_regions", "demo")
# What the values that report and export read must hold, and the test for it.
REPORT_TYPES = {
    "theta": INTS, "epsilon": REAL, "coverage": INT, "bugs_found": INT, "bugs_highlighted": INT,
}
REAL_OR_NULL = ("a real number or null", lambda v: v is None or REAL[1](v))
SCORE_TYPES = {"traj_id": INT, "alpha": REAL, "rc_avg": REAL_OR_NULL, "bug_regions": INTS}


def score_records(
    records: Columns,
    vmap: VoxelMap,
    rnd: RNDPair,
    encoder: ObservationEncoder,
    demo_scripts: list[list[int]],
    max_rows: int,
) -> tuple[list[dict], list[float], int]:
    """Replay every record (TRIAGE_FIELDS columns, as a projected read
    returns them) and demo script in one lockstep batch, check every stored
    position against the replay, then score the records and the demos from
    one table of their distinct goal-prefix states.

    Each distinct state is scored once, in RND calls of at most ``max_rows``
    rows. Returns (record scores, demo scores, distinct replayed positions).
    """
    physics = Physics(vmap)
    n, traj_ids = len(records), records["id"]
    demo_lengths = np.array([len(s) for s in demo_scripts], np.int64)
    lengths = np.concatenate([records.lengths["actions"], demo_lengths])
    played = np.arange(lengths.max(initial=0))[:, None] < lengths  # (T, N)
    actions = np.full(played.shape, Action.WAIT, np.uint8)
    actions.T[played.T] = np.concatenate([records["actions"], *demo_scripts])
    try:
        replay = physics.replay(actions, lengths)
    except PhysicsError as e:
        if e.agent is not None and e.agent < n:
            raise TriageError(f"trajectory {traj_ids[e.agent]}: {e}") from e
        raise
    # Every stored position at once, in dataset order: s_0..s_T of each record.
    stored = np.arange(len(replay.cell))[:, None] <= lengths[:n]
    replayed = physics.positions(replay.cell[:, :n].T[stored.T])
    diverged = (replayed != records["positions"]).any(axis=1)
    if diverged.any():
        ends = np.cumsum(records.lengths["positions"])
        first = np.searchsorted(ends, diverged.argmax(), side="right")
        raise TriageError(f"trajectory {traj_ids[first]}: replay diverged from stored positions")

    ends = replay.first_goal()
    t, script, ids = replay.state_table(ends)

    def curiosity(a: int, b: int) -> np.ndarray:
        """Raw curiosity of distinct states a..b-1 (position code + agent info)."""
        pos, prev, *flags = replay.rows(t[a:b], script[a:b])
        inputs = {"pos": encoder.position_code(pos), "info": agent_info(pos - prev, *flags)}
        return rnd.raw_reward(inputs)

    # Calls of near-equal size, so none has one row unless the table does.
    # Rows are not independent in floating point: BLAS may round a row
    # differently with the row count of the call (a one-row product even
    # goes to gemv). These call sizes are what the bit-equality tests pin,
    # so a different split changes the scores.
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
        {
            "traj_id": tid,
            "alpha": float(alpha),
            "reached_goal": end >= 0,
            "first_goal": end if end >= 0 else None,
            "rc_avg": rc_avg,
            "bug_regions": list(physics.bug_hits(mask)[0]),
            "demo": False,
        }
        for tid, alpha, end, rc_avg, mask in zip(
            traj_ids.tolist(), records["alpha"].tolist(), ends.tolist(), averages, entered.tolist()
        )
    ]
    demo_scores = [v for v in averages[n:] if v is not None]
    # A mask, not np.unique: numpy 2.4's plain np.unique imports numpy.ma.
    seen = np.zeros(physics.size, dtype=bool)
    seen[replay.cell[:, :n]] = True
    return scores, demo_scores, int(np.count_nonzero(seen))


def compute_epsilon(
    scores: list[dict],
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
        s["rc_avg"]
        for s in scores
        if s["alpha"] < 0.5 and s["reached_goal"] and s["rc_avg"] is not None
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


def filter_theta(scores: list[dict], epsilon: float) -> list[int]:
    """Kept ids: dial >= 0.5, goal reached, average curiosity above epsilon."""
    return [
        s["traj_id"]
        for s in scores
        if s["alpha"] >= 0.5
        and s["reached_goal"]
        and s["rc_avg"] is not None
        and s["rc_avg"] > epsilon
    ]


def evaluate_bugs(
    scores: list[dict],
    theta: list[int],
    vmap: VoxelMap,
    epsilon: float,
    mode: str,
    total_coverage: int,
    demo_scores: list[float] | None = None,
) -> dict:
    """The report: its threshold, kept ids and scores, and the planted bug
    regions entered by any scored trajectory and by a kept one."""
    theta_set = set(theta)
    found: set[int] = set()
    highlighted: set[int] = set()
    for s in scores:
        found.update(s["bug_regions"])
        if s["traj_id"] in theta_set:
            highlighted.update(s["bug_regions"])
    per_kind_found: dict[str, int] = {}
    per_kind_high: dict[str, int] = {}
    for i, bug in enumerate(vmap.bugs):
        if i in found:
            per_kind_found[bug.kind] = per_kind_found.get(bug.kind, 0) + 1
        if i in highlighted:
            per_kind_high[bug.kind] = per_kind_high.get(bug.kind, 0) + 1
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "epsilon": epsilon,
        "mode": mode,
        "theta": sorted(theta_set),
        "scores": scores,
        "bugs_found": len(found),
        "bugs_highlighted": len(highlighted),
        "bugs_found_regions": sorted(found),
        "bugs_highlighted_regions": sorted(highlighted),
        "per_kind_found": per_kind_found,
        "per_kind_highlighted": per_kind_high,
        "coverage": total_coverage,
        "demo_scores": list(demo_scores or []),
    }


def run_triage(
    run_dir: str | Path,
    mode: str = "quantile",
    epsilon: float | None = None,
    quantile: float = 0.90,
) -> dict:
    """Pure post-process over a finished run directory; returns the report."""
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
    encoder = ObservationEncoder(vmap, L=profile.L, pe_d=profile.pe_d)

    rng = np.random.default_rng(0)
    rnd = RNDPair(profile, cfg.curiosity, rng, rng)
    rnd.target.load(ckpt_dir / "rnd_target.vxnp")
    rnd.predictor.load(ckpt_dir / "rnd_predictor.vxnp")

    records = TrajectoryLog.read(data_path, fields=TRIAGE_FIELDS)
    if not records:
        raise TriageError(f"{data_path} holds no trajectories")
    demos = []
    if cfg.demo_paths:
        demos = load_demos([resolve_path(p) for p in cfg.demo_paths], vmap).demos
    try:
        scores, demo_scores, total_cov = score_records(
            records, vmap, rnd, encoder,
            [demo.actions for demo in demos], max_rows=cfg.episode_length + 1,
        )
    except TriageError as e:  # each names a record of the dataset
        raise TriageError(f"{data_path}: {e}") from e

    eps = compute_epsilon(scores, demo_scores, mode, value=epsilon, quantile=quantile)
    theta = filter_theta(scores, eps)
    return evaluate_bugs(scores, theta, vmap, eps, mode, total_cov, demo_scores)


def write_report(run_dir: str | Path, report: dict) -> Path:
    """Write ``report`` as the run's ``triage_report.json``; returns its path."""
    path = Path(run_dir) / "triage_report.json"
    nn.write_atomic(path, json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def read_report(run_dir: str | Path) -> dict:
    """A finished run's ``triage_report.json``, in the shape ``run_triage``
    returns; TriageError names the path and the first problem: a missing or
    torn file, missing REPORT_KEYS, scores that are not a list of objects, a
    score's missing SCORE_KEYS, a value failing REPORT_TYPES or SCORE_TYPES,
    or a theta id whose score has no real rc_avg."""
    path = Path(run_dir) / "triage_report.json"
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as e:
        raise TriageError(f"no triage report at {path}; run `voxhunt triage` first") from e
    except json.JSONDecodeError as e:
        raise TriageError(f"{path}: torn or malformed report ({e.msg})") from e
    if not isinstance(doc, dict) or doc.get("format_version") != REPORT_FORMAT_VERSION:
        raise TriageError(f"{path}: not a format {REPORT_FORMAT_VERSION} triage report")
    if problem := key_problem(doc, REPORT_KEYS, REPORT_TYPES, "key"):
        raise TriageError(f"{path}: {problem}")
    if type(doc["scores"]) is not list or not all(type(s) is dict for s in doc["scores"]):
        raise TriageError(f"{path}: scores is not a list of objects")
    for i, score in enumerate(doc["scores"]):
        if problem := key_problem(score, SCORE_KEYS, SCORE_TYPES, "key"):
            raise TriageError(f"{path}: score {i}: {problem}")
    scored = {s["traj_id"] for s in doc["scores"] if s["rc_avg"] is not None}
    unscored = next((t for t in doc["theta"] if t not in scored), None)
    if unscored is not None:
        raise TriageError(f"{path}: theta id {unscored} has no score with a real rc_avg")
    return doc


def export_trajectories(
    records: Columns,
    rc_by_id: dict[int, float | None],
    path: str | Path,
    only_ids: set[int] | None = None,
    demos: list[tuple[str, list]] | None = None,
) -> int:
    """Columnar text export: a metadata header line per trajectory followed by
    one `id t x y z` row per position. ``records`` holds the EXPORT_FIELDS and
    EXPORT_OPTIONAL columns, as a projected read returns them. ``rc_by_id``
    maps trajectory ids to their triage score. ``demos`` are (name,
    positions) pairs of replayed demos, each of which reaches a goal. The
    file is replaced whole (``nn.write_atomic``)."""
    lines = [f"# format_version {EXPORT_FORMAT_VERSION}\n", "# columns: id t x y z\n"]
    n = 0
    rows = zip(
        records["id"].tolist(), records["alpha"].tolist(), records["reached_goal"].tolist(),
        records.split("bug_regions"), records.split("positions"),
    )
    for tid, alpha, reached_goal, bug_regions, positions in rows:
        if only_ids is not None and tid not in only_ids:
            continue
        score = rc_by_id.get(tid)
        bugs = ",".join(str(b) for b in bug_regions) or "-"
        lines.append(
            f"# trajectory id={tid} alpha={alpha} "
            f"score={'' if score is None else score} reached_goal={int(reached_goal)} bugs={bugs} demo=0\n"
        )
        lines.extend(f"{tid} {t} {p[0]} {p[1]} {p[2]}\n" for t, p in enumerate(positions))
        n += 1
    for name, positions in demos or []:
        lines.append(f"# trajectory id={name} alpha= score= reached_goal=1 bugs=- demo=1\n")
        lines.extend(f"{name} {t} {p[0]} {p[1]} {p[2]}\n" for t, p in enumerate(positions))
        n += 1
    nn.write_atomic(path, "".join(lines))
    return n
