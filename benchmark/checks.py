"""Output checks that the benchmark computes apart from the program.

Nothing here imports voxhunt. The map is decoded from its JSON document,
network weights are parsed from the ``.vxnp`` bytes, and novelty scores are
recomputed by a plain numpy forward pass. Each check raises ``CheckError``
with the first violation it finds.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

GOAL_REWARD = 10.0
R_TOLERANCE = 1e-12
SCORE_RTOL = 1e-9
MISSING_COLLISION = "missing_collision"
INFINITE_JUMP_GLITCH = "infinite_jump_glitch"
UNINTENDED_CLIMBABLE = "unintended_climbable"
ADJACENT_8 = [(dx, dz) for dx in (-1, 0, 1) for dz in (-1, 0, 1) if (dx, dz) != (0, 0)]


class CheckError(Exception):
    pass


def close(a: float, b: float, rtol: float = SCORE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ------------------------------------------------------------------ map truth


class MapTruth:
    """Voxels, goals and bug regions decoded straight from a map document."""

    def __init__(self, path: str | Path):
        doc = json.loads(Path(path).read_text())
        nx, ny, nz = doc["dims"]
        self.dims = (nx, ny, nz)
        self.voxels = np.zeros((nx, ny, nz), dtype=np.uint8)
        for y, runs in enumerate(doc["voxels"]["layers"]):
            flat = np.repeat([code for _, code in runs], [count for count, _ in runs])
            if flat.size != nx * nz:
                raise CheckError(f"map layer {y} decodes to {flat.size} cells")
            self.voxels[:, y, :] = flat.reshape(nz, nx).T  # z rows, x fastest
        self.goal = np.zeros(self.dims, dtype=bool)
        for g in doc.get("goals", []):
            if g.get("active", True):
                for v in g["voxels"]:
                    self.goal[tuple(v)] = True
        self.bugs = [(b["kind"], {tuple(v) for v in b["voxels"]}) for b in doc.get("bugs", [])]
        self.passable = np.zeros(self.dims, dtype=bool)  # solid-looking yet passable
        for kind, voxels in self.bugs:
            if kind == MISSING_COLLISION:
                for v in voxels:
                    self.passable[v] = True

    def goal_flags(self, positions: np.ndarray) -> np.ndarray:
        return self.goal[positions[:, 0], positions[:, 1], positions[:, 2]]

    def first_goal(self, positions: np.ndarray) -> int | None:
        hits = np.flatnonzero(self.goal_flags(positions))
        return int(hits[0]) if hits.size else None

    def bug_regions(self, positions: np.ndarray, climbing: np.ndarray | None = None) -> set[int]:
        """Regions entered after the first state; climbable ones need the climb flag."""
        after = {tuple(p) for p in positions[1:].tolist()}
        out = set()
        for i, (kind, voxels) in enumerate(self.bugs):
            if kind in (MISSING_COLLISION, INFINITE_JUMP_GLITCH):
                if after & voxels:
                    out.add(i)
            elif climbing is not None:
                for t in np.flatnonzero(climbing[1:]) + 1:
                    x, y, z = positions[t]
                    if any((x + dx, y, z + dz) in voxels for dx, dz in ADJACENT_8):
                        out.add(i)
                        break
        return out

    def climbable_bug_ids(self) -> set[int]:
        return {i for i, (kind, _) in enumerate(self.bugs) if kind == UNINTENDED_CLIMBABLE}


def fixture_file(root: Path, ref: str) -> Path:
    """Resolve a `fixture:<name>` config reference inside the source tree."""
    if ref.startswith("fixture:"):
        return root / "src" / "voxhunt" / "fixtures" / ref[len("fixture:"):]
    return Path(ref)


# --------------------------------------------------------------- .vxnp files


def read_vxnp(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a parameter file: magic, version, descriptor, named float64 tensors."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"VXNP":
        raise CheckError(f"{path}: bad magic")
    (dlen,) = struct.unpack_from("<Q", raw, 8)
    off = 16
    desc = json.loads(raw[off : off + dlen])
    off += dlen
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    params = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, off)
        off += 2
        name = raw[off : off + nlen].decode()
        off += nlen
        ndim = raw[off]
        off += 1
        shape = struct.unpack_from(f"<{ndim}Q", raw, off)
        off += 8 * ndim
        size = math.prod(shape)
        params[name] = np.frombuffer(raw, dtype="<f8", count=size, offset=off).reshape(shape)
        off += 8 * size
    if off != len(raw):
        raise CheckError(f"{path}: {len(raw) - off} trailing bytes")
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise CheckError(f"{path}: parameter {name} is not finite")
    return desc, params


class RNDForward:
    """Plain forward pass of one novelty network: two branches, concat, trunk."""

    def __init__(self, path: str | Path):
        desc, self.params = read_vxnp(path)
        self.layers = desc["layers"]

    def _dense(self, name: str, x: np.ndarray) -> np.ndarray:
        y = x @ self.params[f"{name}.w"] + self.params[f"{name}.b"]
        act = self.layers[name]["activation"]
        if act == "relu":
            return np.maximum(y, 0.0)
        if act is None:
            return y
        raise CheckError(f"unexpected activation {act!r} in layer {name}")

    def _chain(self, prefix: str, x: np.ndarray) -> np.ndarray:
        i = 0
        while f"{prefix}{i}" in self.layers:
            x = self._dense(f"{prefix}{i}", x)
            i += 1
        return x

    @property
    def pe_d(self) -> int:
        return self.params["pos_fc.w"].shape[0] // 3

    def __call__(self, pos: np.ndarray, info: np.ndarray) -> np.ndarray:
        x = np.concatenate([self._dense("pos_fc", pos), self._chain("info_fc", info)], axis=1)
        return self._dense("out", self._chain("trunk_fc", x))


def position_code(positions: np.ndarray, d: int, base: float = 10000.0) -> np.ndarray:
    """Sinusoidal code per coordinate: sin/cos pairs at geometric wavelengths."""
    freq = 1.0 / base ** (2.0 * np.arange(d // 2) / d)
    out = np.empty((len(positions), 3 * d))
    for axis in range(3):
        ang = positions[:, axis : axis + 1] * freq
        out[:, axis * d : (axis + 1) * d : 2] = np.sin(ang)
        out[:, axis * d + 1 : (axis + 1) * d : 2] = np.cos(ang)
    return out


def agent_info(positions: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """(grounded, climbing, double jump, displacement, unit displacement) per state."""
    disp = np.zeros((len(positions), 3))
    disp[1:] = np.diff(positions, axis=0)
    norm = np.sqrt((disp**2).sum(axis=1, keepdims=True))
    unit = np.divide(disp, norm, out=np.zeros_like(disp), where=norm > 0)
    return np.concatenate([flags.astype(np.float64), disp, unit], axis=1)


def unpack_flags(codes) -> np.ndarray:
    """Per-state flag codes (grounded | climbing << 1 | double jump << 2) to columns."""
    c = np.asarray(codes, dtype=np.int64)
    return np.stack([c & 1, (c >> 1) & 1, (c >> 2) & 1], axis=1)


def novelty_scores(target: RNDForward, predictor: RNDForward, items) -> list[float]:
    """Mean raw novelty over states 0..T divided by T, for (positions, flags, T) items."""
    if not items:
        return []
    d = target.pe_d
    pos = np.concatenate([p[: t + 1] for p, _, t in items])
    info = np.concatenate([agent_info(p[: t + 1], f[: t + 1]) for p, f, t in items])
    code = position_code(pos.astype(np.float64), d)
    rc = ((target(code, info) - predictor(code, info)) ** 2).mean(axis=1)
    out, off = [], 0
    for _, _, t in items:
        out.append(float(rc[off : off + t + 1].sum() / max(t, 1)))
        off += t + 1
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    h = (len(s) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


# ------------------------------------------------------------ train_area1


def check_record(rec: dict, truth: MapTruth, length: int) -> None:
    rid = rec.get("id")
    alpha = rec["alpha"]
    if not 0.0 <= alpha <= 1.0:
        raise CheckError(f"record {rid}: alpha {alpha} outside [0, 1]")
    pos = np.asarray(rec["positions"], dtype=np.int64)
    if pos.shape != (length + 1, 3) or len(rec["actions"]) != length:
        raise CheckError(f"record {rid}: {len(pos)} positions / {len(rec['actions'])} actions")
    cols = {k: np.asarray(rec[k], dtype=np.float64) for k in ("re", "ri", "rc_raw", "rc_norm", "R")}
    for k, v in cols.items():
        if v.shape != (length,) or not np.all(np.isfinite(v)):
            raise CheckError(f"record {rid}: {k} has shape {v.shape} or non-finite values")
    expect = alpha * cols["rc_norm"] + (1.0 - alpha) * cols["ri"] + cols["re"]
    err = np.abs(cols["R"] - expect)
    bad = np.flatnonzero(err > R_TOLERANCE * np.maximum(1.0, np.abs(expect)))
    if bad.size:
        t = int(bad[0])
        raise CheckError(f"record {rid}: R[{t}]={float(cols['R'][t])!r} but the mix gives {float(expect[t])!r}")
    if cols["ri"].min() < 0.0 or cols["ri"].max() > 1.0:
        raise CheckError(f"record {rid}: ri outside [0, 1]")
    if cols["rc_raw"].min() < 0.0:
        raise CheckError(f"record {rid}: negative rc_raw")

    if pos.min() < 0 or np.any(pos >= np.array(truth.dims)):
        raise CheckError(f"record {rid}: position out of bounds")
    in_goal = truth.goal_flags(pos)
    want_re = np.where(in_goal[1:], GOAL_REWARD, 0.0)
    if not np.array_equal(cols["re"], want_re):
        t = int(np.flatnonzero(cols["re"] != want_re)[0])
        raise CheckError(f"record {rid}: re[{t}]={cols['re'][t]} but goal={bool(in_goal[t + 1])}")
    fg = truth.first_goal(pos)
    if rec["first_goal"] != fg or bool(rec["reached_goal"]) != (fg is not None):
        raise CheckError(f"record {rid}: first_goal {rec['first_goal']} but positions give {fg}")
    codes = truth.voxels[pos[:, 0], pos[:, 1], pos[:, 2]]
    solid = (codes != 0) & ~truth.passable[pos[:, 0], pos[:, 1], pos[:, 2]]
    if solid.any():
        t = int(np.flatnonzero(solid)[0])
        raise CheckError(f"record {rid}: position {pos[t].tolist()} lies in a solid voxel")
    entered = truth.bug_regions(pos)
    stored = set(rec["bug_regions"])
    if not entered <= stored or not stored <= entered | truth.climbable_bug_ids():
        raise CheckError(f"record {rid}: bug_regions {sorted(stored)}, positions enter {sorted(entered)}")


def check_train_run(run_dir: Path, truth: MapTruth, iterations: int, episodes: int, length: int) -> int:
    """Check one finished training run directory; returns the record count."""
    lines = (run_dir / "dataset.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines if line.strip()]
    if len(records) != iterations * episodes:
        raise CheckError(f"{run_dir.name}: {len(records)} records, want {iterations * episodes}")
    for k, rec in enumerate(records):
        if (rec["id"], rec["iter"], rec["ep"]) != (k, k // episodes, k % episodes):
            raise CheckError(f"{run_dir.name}: record {k} has id/iter/ep {rec['id']}/{rec['iter']}/{rec['ep']}")
        check_record(rec, truth, length)

    metrics = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    if len(metrics) != iterations:
        raise CheckError(f"{run_dir.name}: {len(metrics)} metrics lines, want {iterations}")
    for i, m in enumerate(metrics):
        if m.get("iteration") != i:
            raise CheckError(f"{run_dir.name}: metrics line {i} has iteration {m.get('iteration')}")
        if m.get("env_steps") != episodes * length * (i + 1):
            raise CheckError(f"{run_dir.name}: metrics line {i} has env_steps {m.get('env_steps')}")
        for k, v in m.items():
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise CheckError(f"{run_dir.name}: metrics line {i} field {k}={v!r}")
    for name in ("policy", "critic", "discriminator", "rnd_target", "rnd_predictor"):
        read_vxnp(run_dir / "checkpoints" / f"{name}.vxnp")
    return len(records)


# ----------------------------------------------------------- triage_area1


class TriageTruth:
    """What a correct triage report of a generated run directory must say."""

    def __init__(self, input_dir: Path, root: Path, quantile: float = 0.90):
        run = input_dir / "run"
        cfg = json.loads((run / "config.json").read_text())
        truth = MapTruth(fixture_file(root, cfg["map_path"]))
        side = json.loads((input_dir / "states.json").read_text())
        target = RNDForward(run / "checkpoints" / "rnd_target.vxnp")
        predictor = RNDForward(run / "checkpoints" / "rnd_predictor.vxnp")

        self.ids, self.alpha, self.first_goal, self.bugs = [], {}, {}, {}
        seen: set[tuple[int, int, int]] = set()
        goal_items, goal_ids = [], []
        with open(run / "dataset.jsonl") as fh:
            for line, flag_codes in zip(fh, side["flags"]):
                rec = json.loads(line)
                rid = rec["id"]
                pos = np.asarray(rec["positions"], dtype=np.int64)
                flags = unpack_flags(flag_codes)
                if len(flags) != len(pos):
                    raise CheckError(f"states file does not match record {rid}")
                seen.update(map(tuple, pos.tolist()))
                self.ids.append(rid)
                self.alpha[rid] = rec["alpha"]
                fg = truth.first_goal(pos)
                self.first_goal[rid] = fg
                self.bugs[rid] = truth.bug_regions(pos, flags[:, 1])
                if fg is not None:
                    goal_items.append((pos, flags, fg))
                    goal_ids.append(rid)
        self.coverage = len(seen)
        self.score = dict(zip(goal_ids, novelty_scores(target, predictor, goal_items)))

        demo_items = []
        for d in side["demos"]:
            pos = np.asarray(d["positions"], dtype=np.int64)
            fg = truth.first_goal(pos)
            if fg is not None:
                demo_items.append((pos, unpack_flags(d["flags"]), fg))
        self.demo_scores = novelty_scores(target, predictor, demo_items)
        reference = self.demo_scores + [
            s for rid, s in self.score.items() if self.alpha[rid] < 0.5
        ]
        self.epsilon = percentile(reference, quantile * 100.0)


def check_triage_report(report: dict, truth: TriageTruth) -> None:
    scores = report["scores"]
    if [s["traj_id"] for s in scores] != truth.ids:
        raise CheckError("report scores do not list the dataset ids in order")
    for s in scores:
        rid = s["traj_id"]
        fg = truth.first_goal[rid]
        if s["first_goal"] != fg or bool(s["reached_goal"]) != (fg is not None):
            raise CheckError(f"trajectory {rid}: first_goal {s['first_goal']}, positions give {fg}")
        if s["alpha"] != truth.alpha[rid]:
            raise CheckError(f"trajectory {rid}: alpha {s['alpha']} != stored {truth.alpha[rid]}")
        if fg is None:
            if s["rc_avg"] is not None:
                raise CheckError(f"trajectory {rid} never reaches the goal yet has a score")
        elif s["rc_avg"] is None or not close(s["rc_avg"], truth.score[rid]):
            raise CheckError(f"trajectory {rid}: rc_avg {s['rc_avg']!r}, recomputed {truth.score[rid]!r}")
        if set(s["bug_regions"]) != truth.bugs[rid]:
            raise CheckError(f"trajectory {rid}: bug regions {s['bug_regions']}, positions give {sorted(truth.bugs[rid])}")
    demo = report["demo_scores"]
    if len(demo) != len(truth.demo_scores) or not all(map(close, demo, truth.demo_scores)):
        raise CheckError("demo scores differ from the recomputed ones")
    if report["mode"] != "quantile" or not close(report["epsilon"], truth.epsilon):
        raise CheckError(f"epsilon {report['epsilon']!r}, recomputed 90th percentile {truth.epsilon!r}")

    eps = truth.epsilon
    theta = set(report["theta"])
    if len(theta) != len(report["theta"]):
        raise CheckError("theta lists an id twice")
    for rid in truth.ids:
        s = truth.score.get(rid)
        if s is not None and close(s, eps):
            continue  # a score on the threshold itself cannot be decided here
        keep = truth.alpha[rid] >= 0.5 and s is not None and s > eps
        if keep != (rid in theta):
            raise CheckError(f"trajectory {rid}: in theta={rid in theta}, should be {keep}")

    found = set(report["bugs_found_regions"])
    highlighted = set(report["bugs_highlighted_regions"])
    if found != set().union(*truth.bugs.values()):
        raise CheckError(f"bugs_found_regions {sorted(found)} differ from the regions entered")
    if not highlighted <= found:
        raise CheckError("bugs_highlighted is not a subset of bugs_found")
    if highlighted != set().union(*(truth.bugs[rid] for rid in theta)):
        raise CheckError("bugs_highlighted_regions differ from the regions theta entered")
    if report["bugs_found"] != len(found) or report["bugs_highlighted"] != len(highlighted):
        raise CheckError("bug counts disagree with the region lists")
    if report["coverage"] != truth.coverage:
        raise CheckError(f"coverage {report['coverage']}, distinct stored positions {truth.coverage}")
