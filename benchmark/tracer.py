"""Span tracer that wraps voxhunt's public functions from outside the program.

Every function named by a per-layer metric is replaced, in its class or in
every ``voxhunt`` module that binds it, by a wrapper that records one span:
its name, start, end, the span that was open when it was called, the
operation it belongs to, and one count (batch rows, bytes or scored calls,
depending on the function). Spans stay in flat arrays in memory and are
written out as one ``.npz`` file when the run ends.

Self time is a span's duration minus the durations of its direct children.
Spans nest strictly (one thread, synchronous calls), so the self times of a
span's whole subtree add up to its duration.

A name that the program no longer defines is reported as absent; its metrics
read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Per-layer metrics, in the order BENCHMARK.json lists them.
# Each name is <module>.<function>.<stat>; <function> may be Class.method,
# and "init" stands for the constructor.
LAYER_METRICS = (
    "nn.Conv3d.forward.calls",
    "nn.Conv3d.forward.rows",
    "nn.Conv3d.forward.self_s",
    "nn.Conv3d.backward.calls",
    "nn.Conv3d.backward.rows",
    "nn.Conv3d.backward.self_s",
    "nn.Embedding.forward.self_s",
    "nn.Embedding.backward.calls",
    "nn.Embedding.backward.self_s",
    "nn.Dense.forward.calls",
    "nn.Dense.forward.self_s",
    "nn.Dense.backward.self_s",
    "nn.Adam.step.calls",
    "nn.Adam.step.self_s",
    "policy.PPOTrainer.update.self_s",
    "policy.ObsNet.forward.self_s",
    "policy.ObsNet.backward.self_s",
    "policy.act.calls",
    "policy.act.rows",
    "policy.act.self_s",
    "policy.compute_gae.calls",
    "policy.compute_gae.self_s",
    "imitation.AMPModule.reward.rows",
    "imitation.AMPModule.reward.self_s",
    "imitation.AMPModule.update.self_s",
    "imitation.penalty_parameter_grads.calls",
    "imitation.penalty_parameter_grads.self_s",
    "imitation.Discriminator.core_forward.self_s",
    "imitation.Discriminator.core_backward.self_s",
    "imitation.ReplayBuffer.add_batch.self_s",
    "curiosity.RNDPair.raw_reward.calls",
    "curiosity.RNDPair.raw_reward.rows",
    "curiosity.RNDPair.raw_reward.self_s",
    "curiosity.RNDPair.update.self_s",
    "curiosity.RunningStd.update.self_s",
    "world.Physics.step.calls",
    "world.Physics.step.self_s",
    "world.play_script.calls",
    "world.play_script.self_s",
    "world.Physics.init.calls",
    "world.Physics.init.self_s",
    "encode.ObservationEncoder.occupancy.calls",
    "encode.ObservationEncoder.occupancy.self_s",
    "encode.ObservationEncoder.position_code.calls",
    "encode.ObservationEncoder.position_code.self_s",
    "encode.agent_info_vector.calls",
    "encode.agent_info_vector.self_s",
    "trainer.Trainer.collect_group.self_s",
    "trainer.Trainer.train_iteration.self_s",
    "trainer.Trainer.save_checkpoints.self_s",
    "trainer.TrajectoryLog.append.calls",
    "trainer.TrajectoryLog.append.bytes",
    "trainer.TrajectoryLog.append.self_s",
    "trainer.TrajectoryLog.read.bytes",
    "trainer.TrajectoryLog.read.self_s",
    "trainer.Trainer.init.self_s",
    "triage.run_triage.self_s",
    "triage.replay_record.calls",
    "triage.replay_record.self_s",
    "triage.score_trajectory.calls",
    "triage.score_trajectory.scored",
    "triage.score_trajectory.self_s",
    "triage.compute_epsilon.self_s",
    "triage.TriageReport.to_json.bytes",
    "triage.TriageReport.to_json.self_s",
    "mapio.load_map.self_s",
    "mapio.load_demo_script.calls",
    "mapio.load_demo_script.self_s",
)

STAT_UNITS = {"calls": "count", "rows": "rows", "bytes": "B", "scored": "count", "self_s": "s"}

# The one count each function carries, if any.
COUNT_KIND = {
    "nn.Conv3d.forward": "rows",
    "nn.Conv3d.backward": "rows",
    "policy.act": "rows",
    "imitation.AMPModule.reward": "rows",
    "curiosity.RNDPair.raw_reward": "rows",
    "trainer.TrajectoryLog.append": "bytes",
    "trainer.TrajectoryLog.read": "bytes",
    "triage.TriageReport.to_json": "bytes",
    "triage.score_trajectory": "scored",
}

# The span the benchmark opens around each operation.
OP_SPAN = "bench.op"


def traced_functions() -> list[str]:
    """Function names (metric names without the stat), in first-seen order."""
    seen: dict[str, None] = {}
    for metric in LAYER_METRICS:
        seen.setdefault(metric.rsplit(".", 1)[0], None)
    return list(seen)


def _batch_rows(args) -> int:
    """Rows of the first array (or dict of arrays) handed to the call."""
    for a in args:
        if isinstance(a, np.ndarray):
            return a.shape[0] if a.ndim else 1
        if isinstance(a, dict) and a:
            first = next(iter(a.values()))
            if isinstance(first, np.ndarray):
                return first.shape[0] if first.ndim else 1
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.absent: list[str] = []
        self.log_paths: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, nid: int, count: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.count.append(count)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_op(self, op: int) -> int:
        self.current_op = op
        return self._open(0, 0)

    def end_op(self, i: int) -> None:
        self._close(i)

    def _wrap(self, fname: str, fn):
        nid = len(self.names)
        self.names.append(fname)
        kind = COUNT_KIND.get(fname)
        tracer = self

        if kind == "rows":
            def wrapper(*args, **kwargs):
                i = tracer._open(nid, _batch_rows(args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)
        elif fname == "trainer.TrajectoryLog.append":
            # Bytes written are read off the finished files in summary().
            def wrapper(self_, *args, **kwargs):
                tracer.log_paths.add(str(self_.path))
                i = tracer._open(nid, 0)
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    tracer._close(i)
        elif fname == "trainer.TrajectoryLog.read":
            def wrapper(path, *args, **kwargs):
                i = tracer._open(nid, os.path.getsize(path))
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    tracer._close(i)
        elif kind in ("bytes", "scored"):
            def wrapper(*args, **kwargs):
                i = tracer._open(nid, 0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                if kind == "bytes":
                    tracer.count[i] = len(result)
                else:
                    tracer.count[i] = int(result[0] is not None)
                return result
        else:
            def wrapper(*args, **kwargs):
                i = tracer._open(nid, 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)

        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every traced function; record the ones the program lacks."""
        for fname in traced_functions():
            mod_name, *qual = fname.split(".")
            try:
                mod = importlib.import_module(f"voxhunt.{mod_name}")
            except ImportError:
                self.absent.append(fname)
                continue
            if len(qual) == 1:
                self._patch_function(mod, qual[0], fname)
            else:
                cls = getattr(mod, qual[0], None)
                attr = "__init__" if qual[1] == "init" else qual[1]
                if not isinstance(cls, type) or attr not in cls.__dict__:
                    self.absent.append(fname)
                    continue
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(fname, raw.__func__))
                else:
                    new = self._wrap(fname, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)

    def _patch_function(self, mod, name: str, fname: str) -> None:
        original = getattr(mod, name, None)
        if not callable(original):
            self.absent.append(fname)
            return
        wrapper = self._wrap(fname, original)
        # `from .x import f` binds f in other modules too; rebind them all.
        for mod_name, other in list(sys.modules.items()):
            if mod_name == "voxhunt" or mod_name.startswith("voxhunt."):
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, attr, original))
                        setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, ops: int) -> dict:
        """Per-layer metrics per operation, plus the trainer phase split."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        self_s = np.bincount(a["name_id"], weights=self_t, minlength=n_names)
        counts = np.bincount(a["name_id"], weights=a["count"], minlength=n_names)
        by_name = {name: k for k, name in enumerate(self.names)}
        append_bytes = sum(os.path.getsize(p) for p in self.log_paths if os.path.exists(p))

        metrics: dict[str, float] = {}
        for metric in LAYER_METRICS:
            fname, stat = metric.rsplit(".", 1)
            k = by_name.get(fname)
            if k is None:
                value = 0.0
            elif stat == "calls":
                value = float(calls[k])
            elif stat == "self_s":
                value = float(self_s[k])
            elif fname == "trainer.TrajectoryLog.append":
                value = float(append_bytes)
            else:
                value = float(counts[k])
            metrics[metric] = value / max(ops, 1)

        return {
            "metrics": metrics,
            "spans": int(len(dur)),
            "absent": list(self.absent),
            "train_iteration": self._iteration_split(a, dur, self_t, by_name),
        }

    def _iteration_split(self, a, dur, self_t, by_name) -> dict | None:
        """Closure check and phase split of Trainer.train_iteration spans."""
        k = by_name.get("trainer.Trainer.train_iteration")
        if k is None:
            return None
        roots = np.flatnonzero(a["name_id"] == k)
        if roots.size == 0:
            return None
        # Map every span to the train_iteration span above it (or -1).
        top = np.full(dur.size, -1, dtype=np.int64)
        top[roots] = roots
        parent = a["parent"]
        for i in range(dur.size):  # parents precede children
            p = parent[i]
            if top[i] < 0 and p >= 0:
                top[i] = top[p]
        inside = top >= 0
        total = float(dur[roots].sum())
        subtree_self = float(self_t[inside].sum())

        phase_of = {
            "trainer.Trainer.collect_group": "rollout",
            "imitation.AMPModule.reward": "reward_scoring",
            "curiosity.RNDPair.raw_reward": "reward_scoring",
            "curiosity.RunningStd.update": "reward_scoring",
            "imitation.ReplayBuffer.add_batch": "discriminator",
            "imitation.AMPModule.update": "discriminator",
            "curiosity.RNDPair.update": "rnd",
            "policy.ObsNet.forward": "ppo",  # critic values over the batch
            "policy.compute_gae": "ppo",
            "policy.PPOTrainer.update": "ppo",
            "trainer.TrajectoryLog.append": "dataset_write",
        }
        phases = {p: 0.0 for p in dict.fromkeys(phase_of.values())}
        phases["other"] = float(self_t[roots].sum())  # record building, batching
        direct = np.flatnonzero(np.isin(parent, roots))
        for i in direct:
            phase = phase_of.get(self.names[a["name_id"][i]], "other")
            phases[phase] += float(dur[i])
        return {
            "iterations": int(roots.size),
            "total_s": total,
            "subtree_self_s": subtree_self,
            "closure_error_s": subtree_self - total,
            "phase_s": phases,
        }
