"""The training loop: per-episode exploration dial, combined step rewards,
lockstep rollout collection, module updates, and an append-only trajectory
dataset on disk.

Every episode samples a dial value alpha in [0, 1] that stays fixed for the
whole episode and is part of the observation. The step reward is

    R = alpha * r_c(s') + (1 - alpha) * r_i(s, a) + r_e

so alpha=0 asks for faithful imitation and alpha=1 for pure novelty chasing,
with the goal reward always on. Every trajectory ever collected is appended
to the run's dataset with its alpha; triage happens after training from that
file alone.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import nn
from .config import TrainConfig, resolve_path
from .curiosity import RNDPair
from .encode import ObservationEncoder
from .imitation import AMPModule, demo_pairs, load_demos
from .mapio import load_map
from .policy import (
    PPOTrainer,
    RolloutBatch,
    act,
    compute_gae,
    make_critic_net,
    make_policy_net,
)
from .world import GOAL_REWARD, Action, Physics, Replay, VoxelMap, first_seen

FORMAT_VERSION = 1


class TriageError(Exception):
    """A run directory cannot be read back for triage or export."""


class TrainingDiverged(Exception):
    """A module update produced non-finite numbers; checkpoints were saved."""


def sample_alpha(rng: np.random.Generator) -> float:
    """Per-episode exploration dial, uniform on [0, 1]."""
    return float(rng.random())


def combine_reward(r_c, r_i, r_e, alpha):
    """Exact affine mix: alpha * r_c + (1 - alpha) * r_i + r_e."""
    return alpha * r_c + (1.0 - alpha) * r_i + r_e


def fresh_dir(path: Path) -> bool:
    """Whether a run can be written at ``path``: it is missing or an empty directory."""
    return not path.exists() or (path.is_dir() and not any(path.iterdir()))


def _rows(a: np.ndarray) -> np.ndarray:
    """Per-episode arrays (m, n, ...) as one batch of m*n rows."""
    return a.reshape(-1, *a.shape[2:])


@dataclass
class Rollout:
    """One iteration's m episodes of T steps, rolled in lockstep."""

    alphas: np.ndarray  # (m,)
    replay: Replay  # the episodes' states, actions and bug masks, time-major
    logp: np.ndarray  # (m, T)
    # (m, T+1, ...) per state, encoded from the replay's arrays: the network
    # inputs by name, and pos_pe for RND; "occ" is one ``nn.Rows`` over the
    # distinct cubes (K, L^3), numbered in first-seen order over the states
    # tick by tick, and every occupancy view is sliced from it
    features: dict

    @property
    def actions(self) -> np.ndarray:
        return self.replay.actions.T.astype(np.int64)

    @property
    def r_e(self) -> np.ndarray:
        """Goal reward of every step, (m, T)."""
        return np.where(self.replay.goal[1:].T, GOAL_REWARD, 0.0)

    @property
    def reached_goal(self) -> np.ndarray:
        return self.replay.goal.any(axis=0)

    def occ_steps(self) -> nn.Rows:
        """Occupancy of the state each action was taken in, one row per step."""
        return _rows(self.features["occ"][:, :-1])

    def novelty_inputs(self, states=np.s_[:]) -> dict[str, np.ndarray]:
        """RND inputs of the given states (all, or e.g. the next states), one row each."""
        f = self.features
        return {"pos": _rows(f["pos_pe"][:, states]), "info": _rows(f["info"][:, states])}


def _ints(values) -> bool:
    return set(map(type, values)) <= {int}  # a bool is not an int here


INT = ("an int", lambda v: type(v) is int)
REAL = ("a real number", lambda v: type(v) in (int, float))
INTS = ("a list of ints", lambda v: type(v) is list and _ints(v))

# What each dataset field a reader keeps must hold, and the test for it.
FIELD_TYPES = {
    "id": INT,
    "alpha": REAL,
    "reached_goal": ("a bool", lambda v: type(v) is bool),
    "positions": (
        "a list of [x, y, z] int lists",
        lambda v: type(v) is list
        and set(map(type, v)) <= {list}
        and set(map(len, v)) <= {3}
        and _ints(chain.from_iterable(v)),
    ),
    "bug_regions": INTS,
    "actions": (
        f"a list of action ids 0..{len(Action) - 1}",
        lambda v: type(v) is list and _ints(v) and (not v or 0 <= min(v) <= max(v) < len(Action)),
    ),
}


def key_problem(doc: dict, required, types: dict, noun: str) -> str | None:
    """What is wrong with ``doc``, if anything: the ``required`` keys it
    lacks, else the first of its keys in ``types`` whose value fails the test."""
    missing = [k for k in required if k not in doc]
    if missing:
        return f"missing {noun} {', '.join(missing)}"
    bad = next((k for k in doc if k in types and not types[k][1](doc[k])), None)
    return bad and f"{noun} {bad} is not {types[bad][0]}"


def _record_problem(record: dict, fields: tuple[str, ...], index: int) -> str | None:
    """key_problem of a kept dataset record, or positions that are not one
    more than its actions, named by its id (or ``index`` if the id is bad)."""
    problem = key_problem(record, fields, FIELD_TYPES, "field")
    if not problem and {"actions", "positions"} <= record.keys():
        n, m = len(record["positions"]), len(record["actions"])
        problem = f"{n} positions for {m} actions" if n != m + 1 else None
    name = f"trajectory {record['id']}" if type(record.get("id")) is int else f"record {index}"
    return problem and f"{name}: {problem}"


# The dataset index: the FIELD_TYPES fields of every record as typed
# columns, in a file beside the log (``index_path``). Per field, the dtype of
# its values and, for a list field, the shape of one element (None: one value
# per record).
INDEX_COLUMNS = {
    "id": ("<i8", None),
    "alpha": ("<f8", None),
    "reached_goal": ("|b1", None),
    "actions": ("|u1", ()),
    "positions": ("<i2", (3,)),  # a map wider than 32767 voxels gets no index
    "bug_regions": ("<i8", ()),
}
# An index's first line names this layout, so one written for another
# layout never reads as this one.
INDEX_FORMAT = f"voxhunt dataset index {json.dumps(INDEX_COLUMNS)}\n".encode()


def index_path(log_path: str | Path) -> Path:
    """Where the index of the log at ``log_path`` lives: dataset.jsonl -> dataset.index."""
    return Path(log_path).with_suffix(".index")


def _file_sha256(path: str | Path) -> str:
    """The sha256 of the file at ``path``, read in 256 KiB chunks so memory
    stays flat (``hashlib.file_digest`` needs Python 3.11; 1 MiB chunks
    raised a triage pass's peak RSS by ≈0.9 MB)."""
    sha, buf = hashlib.sha256(), bytearray(1 << 18)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            sha.update(memoryview(buf)[:n])
    return sha.hexdigest()


def _index_row(record: dict) -> list[bytes] | None:
    """``record``'s part of each index column, two per INDEX_COLUMNS field
    (a list field's length, then its values), or None when the record has a
    _record_problem or a value would not read back as the same JSON value
    (an int alpha, an int outside its column's dtype)."""
    if _record_problem(record, tuple(INDEX_COLUMNS), 0):
        return None
    parts = []
    for k, (dtype, item) in INDEX_COLUMNS.items():
        value = record[k]
        try:
            column = np.asarray(value, dtype)
        except OverflowError:  # NumPy 2 refuses an int out of range; 1.x wraps it
            return None
        back = column.tolist()
        if type(back) is not type(value) or back != value:
            return None
        length = b"" if item is None else len(value).to_bytes(8, "little")
        parts += [length, column.tobytes()]
    return parts


@dataclass(frozen=True)
class Columns:
    """Dataset fields of ``n`` records, in record order, as a projected
    ``TrajectoryLog.read`` returns them: ``values[k]`` holds a scalar field's
    n values, or a list field's values of every record end to end (positions
    as rows of 3), and ``lengths[k]`` a list field's count per record. A
    column has its INDEX_COLUMNS dtype, or is an object array of the decoded
    JSON values when one does not fit it (an id beyond int64, a position
    beyond int16; such a dataset has no index)."""

    n: int
    values: dict[str, np.ndarray]
    lengths: dict[str, np.ndarray]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, field: str) -> np.ndarray:
        return self.values[field]

    def split(self, field: str) -> list[list]:
        """A list field's values as one Python list per record."""
        values, ends = self.values[field].tolist(), np.cumsum(self.lengths[field]).tolist()
        return [values[a:b] for a, b in zip([0, *ends], ends)]

    @classmethod
    def of(cls, records: list[dict], fields: tuple[str, ...], optional=()) -> Columns:
        """``records``, each holding ``fields`` with values that pass their
        FIELD_TYPES test, as columns; a record lacking one of the ``optional``
        list fields holds it empty."""
        values, lengths = {}, {}
        for k in (*fields, *optional):
            dtype, item = INDEX_COLUMNS[k]
            if item is None:
                values[k] = _column([r[k] for r in records], dtype, ())
                continue
            parts = [r.get(k, ()) for r in records]
            lengths[k] = np.array([len(p) for p in parts], "<i8")
            values[k] = _column(list(chain.from_iterable(parts)), dtype, item)
        return cls(len(records), values, lengths)


def _column(values: list, dtype: str, item: tuple[int, ...]) -> np.ndarray:
    """``values``, each of shape ``item``, as an array of ``dtype`` when
    every number fits it (an int alpha reads as a float), else as an array
    of the values themselves."""
    numbers = chain.from_iterable(values) if item else values
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # NumPy 1.x wraps an int out of range
            column = np.fromiter(numbers, dtype, len(values) * int(np.prod(item)))
    except (OverflowError, DeprecationWarning):  # NumPy 2 refuses it
        return np.array(values, object)
    return column.reshape(-1, *item)


def _read_index(path: Path, keep: tuple[str, ...]) -> Columns | None:
    """The fields ``keep`` of every record of the log at ``path``, as
    read-only column views of its index; None when the index is absent,
    damaged (its checksum) or stale (it was not written for these bytes)."""
    try:
        blob = index_path(path).read_bytes()
    except OSError:
        return None
    start = len(INDEX_FORMAT) + 65  # the format line, then the body's sha256 line
    body = memoryview(blob)[start:]
    if blob[:start] != INDEX_FORMAT + hashlib.sha256(body).hexdigest().encode() + b"\n":
        return None
    end = blob.index(b"\n", start) + 1
    tie = json.loads(blob[start:end])  # the log's line count and sha256
    if tie["sha256"] != _file_sha256(path):
        return None
    n, offset, values, lengths = tie["lines"], end, {}, {}

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal offset
        column = np.frombuffer(blob, dtype, count, offset)
        offset += column.nbytes
        return column

    for k, (dtype, item) in INDEX_COLUMNS.items():
        if item is None:
            values[k] = take(dtype, n)
            continue
        lengths[k] = take("<i8", n)
        values[k] = take(dtype, int(lengths[k].sum()) * int(np.prod(item))).reshape(-1, *item)
    return Columns(n, {k: values[k] for k in keep}, {k: lengths[k] for k in keep if k in lengths})


class TrajectoryLog:
    """Append-only JSONL file, one sorted-key object per line: a run's dataset or metrics.

    A log keeps the INDEX_COLUMNS fields of its records as columns while
    every record can be held in them exactly, and ``close`` writes them to
    ``index_path`` when the file then holds exactly the appended lines (a
    log that began on a non-empty file gets none). The index is derived
    data: opening a log removes any old one, and ``read`` takes it only
    when it is intact and matches the file's bytes, and decodes the JSONL
    in every other case, so a missing, stale or damaged index never changes
    a result.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.count = 0
        self._fh = open(self.path, "ab")
        index_path(self.path).unlink(missing_ok=True)
        # The index columns in _index_row's order (≈0.95 KB per 128-step
        # record); None once a record cannot be held exactly in them. A log
        # that began non-empty fails close's check that the file holds
        # exactly the appended bytes.
        self._columns = [bytearray() for _ in range(2 * len(INDEX_COLUMNS))]
        self._sha = hashlib.sha256()  # of the appended bytes

    def append(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        self._fh.write(line)
        self.count += 1
        if self._columns is not None:
            parts = _index_row(record)
            if parts is None:
                self._columns = None
                return
            for column, part in zip(self._columns, parts):
                column += part
            self._sha.update(line)

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()
        if self._columns is None or not self.count:
            return
        tie = {"lines": self.count, "sha256": self._sha.hexdigest()}
        if _file_sha256(self.path) != tie["sha256"]:
            return  # the file holds more or other than the appended lines
        body = (json.dumps(tie, sort_keys=True) + "\n").encode() + b"".join(self._columns)
        checksum = hashlib.sha256(body).hexdigest().encode()
        nn.write_atomic(index_path(self.path), INDEX_FORMAT + checksum + b"\n" + body)

    @staticmethod
    def read(
        path: str | Path, fields: tuple[str, ...] | None = None, optional: tuple[str, ...] = ()
    ) -> list[dict] | Columns:
        """Every record in the file, in order; a missing file, a line that is
        not UTF-8, a torn line, or a line that is not a JSON object is a
        TriageError naming the path.

        With ``fields`` (dataset fields, FIELD_TYPES keys) the read is
        projected and returns Columns of ``fields`` and ``optional`` (list
        fields, empty where a record lacks one). They come from the log's
        index when that is intact and was written for these bytes (every
        record then passed _record_problem as it was appended). Otherwise
        each record of the JSONL keeps only those fields as soon as it is
        decoded, a _record_problem is a TriageError, and the checked records
        are packed into the same columns."""
        if fields is not None:
            keep = (*fields, *optional)
            if unknown := [k for k in keep if k not in INDEX_COLUMNS]:
                raise ValueError(f"not dataset fields: {', '.join(unknown)}")
            if scalar := [k for k in optional if INDEX_COLUMNS[k][1] is None]:
                raise ValueError(f"only a list field can be optional: {', '.join(scalar)}")
        if not Path(path).exists():
            raise TriageError(f"missing dataset: {path}")
        if fields is not None and (columns := _read_index(Path(path), keep)) is not None:
            return columns
        records = []
        with open(path, "rb") as fh:
            for number, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode().strip()
                except UnicodeDecodeError as e:
                    raise TriageError(
                        f"{path}: line {number}: torn or malformed record (not UTF-8: {e.reason})"
                    ) from e
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise TriageError(
                        f"{path}: line {number}: torn or malformed record ({e.msg})"
                    ) from e
                if not isinstance(record, dict):
                    raise TriageError(f"{path}: line {number}: record is not a JSON object")
                if fields is not None:
                    record = {k: record[k] for k in keep if k in record}
                    if problem := _record_problem(record, fields, len(records) + 1):
                        raise TriageError(f"{path}: {problem}")
                records.append(record)
        return records if fields is None else Columns.of(records, fields, optional)


class Trainer:
    def __init__(self, cfg: TrainConfig, run_dir: str | Path):
        problems = cfg.validate()
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        self.cfg = cfg
        self.run_dir = Path(run_dir)
        self.map: VoxelMap = load_map(resolve_path(cfg.map_path))
        self.physics = Physics(self.map)  # one engine for every rollout
        self.profile = profile = cfg.net_profile()
        self.encoder = ObservationEncoder(self.map, L=profile.L, pe_d=profile.pe_d)

        branches = dict(
            position_mode=cfg.position_mode, perception=cfg.perception, dims=self.map.dims
        )
        self.policy = make_policy_net(profile, self._rng(0, 0), **branches)
        self.critic = make_critic_net(profile, self._rng(0, 1), **branches)
        self.ppo = PPOTrainer(self.policy, self.critic, cfg.ppo)

        self.amp: AMPModule | None = None
        self.rnd: RNDPair | None = None
        if cfg.reward_mode == "full":
            expert_occ, expert_act = demo_pairs(
                load_demos([resolve_path(p) for p in cfg.demo_paths], self.map), self.encoder
            )
            self.amp = AMPModule(
                profile, cfg.imitation, expert_occ, expert_act, self._rng(0, 2)
            )
            self.rnd = RNDPair(profile, cfg.curiosity, self._rng(0, 3), self._rng(0, 4))

        self.visited = np.zeros(self.physics.size, dtype=bool)  # cells entered
        self.total_env_steps = 0
        self.traj_count = 0

    def _rng(self, *key: int) -> np.random.Generator:
        """The random stream of ``key``, a function of the seed and the key
        alone. Keys: (0, net) initial weights of net 0-4: policy, critic,
        discriminator, RND target, RND predictor; (1, iteration, episode) an
        episode's dial and actions; (2, iteration) the iteration's module
        updates; (3, round) the dials of evaluation round ``round``."""
        return np.random.default_rng(np.random.SeedSequence(entropy=self.cfg.seed, spawn_key=key))

    # ------------------------------------------------------------- rollouts

    def _net_inputs(self, features: dict, alpha: np.ndarray) -> dict:
        """Policy/critic inputs: the features the nets read and the dial, each
        with ``alpha``'s batch shape flattened into rows."""
        x = {**features, "alpha": alpha[..., None]}
        n, lead = alpha.size, alpha.ndim
        return {k: x[k].reshape(n, *x[k].shape[lead:]) for k in self.policy.input_keys}

    def collect_group(
        self, alphas: np.ndarray, rngs: list[np.random.Generator] | None = None
    ) -> Rollout:
        """Roll one episode per dial value in lockstep with a frozen policy,
        stepping all of them in one simulator call per tick.

        Each episode samples its actions from its own generator; without
        generators the policy acts greedily. Every state's occupancy cube gets
        an id, numbered in first-seen order over the distinct cubes.
        """
        cfg = self.cfg
        m, T = len(alphas), cfg.episode_length
        physics = self.physics
        rec = physics.start(np.full(m, T))

        states: list[dict[str, np.ndarray]] = []
        logp = np.zeros((m, T))
        for t in range(T + 1):
            states.append(
                self.encoder.features(*rec.rows(t), t, cfg.position_mode, cfg.perception)
            )
            if t == T:
                break
            inputs = self._net_inputs(states[-1], alphas)
            rec.actions[t], logp[:, t], _ = act(self.policy, inputs, rngs)
            physics.step(rec, t)

        # The rollout keeps the occupancy once: as ids into the distinct cubes.
        occ = np.stack([s.pop("occ") for s in states]).reshape((T + 1) * m, -1)
        first, ids = first_seen(occ.view(np.dtype((np.void, occ.shape[1]))).reshape(-1))
        features = {k: np.stack([s[k] for s in states], axis=1) for k in states[0]}
        features["occ"] = nn.Rows(occ[first], ids.reshape(T + 1, m).T)
        return Rollout(alphas, rec, logp, features)

    # --------------------------------------------------------------- update

    def _reward_components(self, ro: Rollout):
        """Per-step r_i and r_c of every episode, each (m, T)."""
        m, T = ro.logp.shape
        if self.cfg.reward_mode == "extrinsic_only" or self.amp is None:
            zeros = np.zeros((m, T))
            return zeros, zeros, zeros
        r_i = self.amp.reward(ro.occ_steps(), ro.actions.reshape(-1)).reshape(m, T)
        rc_raw = self.rnd.raw_reward(ro.novelty_inputs(np.s_[1:])).reshape(m, T)
        self.rnd.observe_rewards(rc_raw.reshape(-1))
        rc_norm = self.rnd.normalized_reward(rc_raw.reshape(-1)).reshape(m, T)
        return r_i, rc_raw, rc_norm

    def _build_batch(self, ro: Rollout, r_i, rc_norm):
        cfg = self.cfg
        m, T = ro.logp.shape
        R = combine_reward(rc_norm, r_i, ro.r_e, ro.alphas[:, None])

        # Critic values for every state (bootstraps the truncated tail).
        alpha = np.repeat(ro.alphas[:, None], T + 1, axis=1)
        values = self.critic.infer(self._net_inputs(ro.features, alpha))[:, 0].reshape(m, T + 1)

        advs, rets = compute_gae(R, values, cfg.ppo.gamma, cfg.ppo.gae_lambda)

        steps = {k: v[:, :-1] for k, v in ro.features.items()}
        batch = RolloutBatch(
            inputs=self._net_inputs(steps, alpha[:, :-1]),
            actions=ro.actions.reshape(-1),
            logp_old=ro.logp.reshape(-1),
            advantages=advs.reshape(-1),
            returns=rets.reshape(-1),
        )
        return batch, R

    def train_iteration(self, iteration: int, log: TrajectoryLog | None) -> dict:
        cfg = self.cfg
        rngs = [self._rng(1, iteration, e) for e in range(cfg.episodes_per_iter)]
        alphas = np.array([sample_alpha(r) for r in rngs])
        if cfg.alpha_mode == "fixed":  # drawn anyway: both modes consume the same streams
            alphas = np.full_like(alphas, cfg.alpha_value)
        ro = self.collect_group(alphas, rngs)
        self.visited[ro.replay.cell] = True
        self.total_env_steps += ro.logp.size
        r_i, rc_raw, rc_norm = self._reward_components(ro)
        batch, R = self._build_batch(ro, r_i, rc_norm)

        update_rng = self._rng(2, iteration)
        stats: dict[str, float] = {}
        if self.amp is not None:
            self.amp.observe_policy_pairs(np.asarray(ro.occ_steps()), batch.actions)
            stats.update(self.amp.update(update_rng))
            stats["rnd_loss"] = self.rnd.update(ro.novelty_inputs(), update_rng)
        stats.update(self.ppo.update(batch, update_rng))

        if log is not None:
            rec, physics = ro.replay, self.physics
            positions = physics.positions(rec.cell.T).tolist()
            first_goal, r_e = rec.first_goal().tolist(), ro.r_e.tolist()
            ri, rcr, rcn, Rs = r_i.tolist(), rc_raw.tolist(), rc_norm.tolist(), R.tolist()
            for i, (alpha, actions, entered) in enumerate(
                zip(ro.alphas, rec.actions.T.tolist(), rec.entered().tolist())
            ):
                regions, kinds = physics.bug_hits(entered)
                log.append(
                    {
                        "id": self.traj_count,
                        "iter": iteration,
                        "ep": i,
                        "alpha": float(alpha),
                        "reached_goal": first_goal[i] >= 0,
                        "first_goal": first_goal[i] if first_goal[i] >= 0 else None,
                        "positions": positions[i],
                        "actions": actions,
                        "re": r_e[i],
                        "ri": ri[i],
                        "rc_raw": rcr[i],
                        "rc_norm": rcn[i],
                        "R": Rs[i],
                        "bug_regions": list(regions),
                        "bug_kinds": sorted(set(kinds)),
                    }
                )
                self.traj_count += 1
            log.flush()

        goal_rate = float(np.mean(ro.reached_goal))
        metrics = {
            "iteration": iteration,
            "env_steps": self.total_env_steps,
            "mean_R": float(R.mean()),
            "mean_ri": float(r_i.mean()),
            "mean_rc_raw": float(rc_raw.mean()),
            "mean_rc_norm": float(rc_norm.mean()),
            "goal_rate": goal_rate,
            "coverage": int(np.count_nonzero(self.visited)),
        }
        metrics.update({k: float(v) for k, v in stats.items()})
        return metrics

    # ----------------------------------------------------------------- eval

    def evaluate(self, round_id: int) -> float:
        """Share of greedy lockstep episodes that ever enter a goal."""
        rng = self._rng(3, round_id)
        alphas = np.array([sample_alpha(rng) for _ in range(self.cfg.eval_episodes)])
        return float(np.mean(self.collect_group(alphas).reached_goal))

    # ------------------------------------------------------------------ run

    def save_checkpoints(self, ckpt_dir: Path) -> None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        self.policy.save(ckpt_dir / "policy.vxnp")
        self.critic.save(ckpt_dir / "critic.vxnp")
        if self.amp is not None:
            self.amp.disc.save(ckpt_dir / "discriminator.vxnp")
            self.rnd.target.save(ckpt_dir / "rnd_target.vxnp")
            self.rnd.predictor.save(ckpt_dir / "rnd_predictor.vxnp")

    def run(self) -> dict:
        cfg = self.cfg
        run_dir = self.run_dir
        if not fresh_dir(run_dir):
            raise FileExistsError(f"run directory exists and is not an empty directory: {run_dir}")
        run_dir.mkdir(parents=True, exist_ok=True)
        nn.write_atomic(run_dir / "config.json", cfg.to_json() + "\n")
        manifest = {
            "format_version": FORMAT_VERSION,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "profile": cfg.profile,
            "map": self.map.name,
        }
        nn.write_atomic(
            run_dir / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        )
        started = time.time()

        log = TrajectoryLog(run_dir / "dataset.jsonl")
        metrics_log = TrajectoryLog(run_dir / "metrics.jsonl")
        eval_rate = None
        stopped_early = False
        try:
            for it in range(cfg.iterations):
                try:
                    metrics = self.train_iteration(it, log)
                except nn.NonFiniteError as e:
                    self.save_checkpoints(run_dir / "checkpoints")
                    diag = {"iteration": it, "error": str(e)}
                    nn.write_atomic(run_dir / "diagnostics.json", json.dumps(diag) + "\n")
                    raise TrainingDiverged(f"iteration {it}: {e}") from e
                if cfg.eval_every and (it + 1) % cfg.eval_every == 0:
                    eval_rate = self.evaluate(it)
                    metrics["eval_goal_rate"] = eval_rate
                metrics_log.append(metrics)
                metrics_log.flush()
                if (
                    cfg.stop_at_goal_rate > 0.0
                    and eval_rate is not None
                    and eval_rate >= cfg.stop_at_goal_rate
                ):
                    stopped_early = True
                    break
        finally:
            log.close()
            metrics_log.close()
        self.save_checkpoints(run_dir / "checkpoints")
        # Wall-clock info lives outside the manifest so reruns stay bit-identical.
        nn.write_atomic(
            run_dir / "timing.json", json.dumps({"seconds": time.time() - started}) + "\n"
        )
        return {
            "run_dir": str(run_dir),
            "trajectories": log.count,
            "coverage": int(np.count_nonzero(self.visited)),
            "env_steps": self.total_env_steps,
            "eval_goal_rate": eval_rate,
            "stopped_early": stopped_early,
        }


def run_training(cfg: TrainConfig, run_dir: str | Path) -> dict:
    return Trainer(cfg, run_dir).run()
