"""Run configuration: profiles, JSON round-trip, dotted overrides, stable hash.

Two architecture profiles exist, as ``Profile`` values that every network
reads its widths from. ``desk``, the field defaults, shrinks every width so a
full run fits a desktop CPU; ``paper`` keeps the reference sizes (occupancy cube 21,
dense widths 512/1024, four conv layers) for documentation parity. Both share
the same hyperparameter defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .curiosity import CuriosityConfig
from .imitation import ImitationConfig
from .policy import PPOConfig


class ConfigError(Exception):
    pass


def resolve_path(path: str) -> str:
    """Expand `fixture:<name>` references to bundled files."""
    if path.startswith("fixture:"):
        from .mapio import fixture_path

        return str(fixture_path(path[len("fixture:") :]))
    return path


@dataclass(frozen=True)
class Profile:
    """The widths of every network: the policy and critic, the discriminator
    (``act_units``) and the RND pair (``rnd_*``). The defaults are ``desk``."""

    name: str = "desk"
    pe_d: int = 32  # sinusoidal code values per coordinate
    L: int = 7  # occupancy cube side
    occ_embed: int = 8
    conv: tuple[tuple[int, int, int], ...] = ((8, 2, 0), (16, 2, 0))  # (channels, stride, pad)
    pos_units: int = 64
    info_units: tuple[int, ...] = (64, 64)
    trunk: tuple[int, ...] = (128, 64, 64)
    ray_units: int = 64
    act_units: int = 64
    rnd_pos_units: int = 64
    rnd_info_units: tuple[int, ...] = (64, 64)
    rnd_trunk: tuple[int, ...] = (128, 64)
    rnd_out: int = 128


PROFILES = {
    "desk": Profile(),
    "paper": Profile(
        name="paper",
        L=21,
        occ_embed=16,
        conv=((32, 2, 1), (32, 2, 1), (64, 2, 1), (64, 2, 1)),
        pos_units=512,
        info_units=(512, 512),
        trunk=(1024, 512, 512),
        ray_units=512,
        act_units=512,
        rnd_pos_units=512,
        rnd_info_units=(512, 512),
        rnd_trunk=(1024, 512),
    ),
}


@dataclass
class TrainConfig:
    map_path: str = ""
    demo_paths: list[str] = field(default_factory=list)
    iterations: int = 100
    episodes_per_iter: int = 10
    episode_length: int = 128
    seed: int = 0
    profile: str = "desk"
    alpha_mode: str = "uniform"  # uniform | fixed
    alpha_value: float = 0.5  # used when alpha_mode == fixed
    reward_mode: str = "full"  # full | extrinsic_only
    position_mode: str = "sinusoidal"
    perception: str = "occupancy"
    eval_every: int = 0  # iterations between greedy goal-rate evals (0: never)
    eval_episodes: int = 20
    stop_at_goal_rate: float = 0.0  # early stop once eval reaches this (0: never)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    imitation: ImitationConfig = field(default_factory=ImitationConfig)
    curiosity: CuriosityConfig = field(default_factory=CuriosityConfig)

    def validate(self) -> list[str]:
        problems = []
        if not self.map_path:
            problems.append("map_path is required")
        elif not Path(resolve_path(self.map_path)).exists():
            problems.append(f"map_path does not exist: {self.map_path}")
        for p in self.demo_paths:
            if not Path(resolve_path(p)).exists():
                problems.append(f"demo path does not exist: {p}")
        if self.reward_mode == "full" and not self.demo_paths:
            problems.append("reward_mode 'full' requires at least one demo path")
        if self.reward_mode not in ("full", "extrinsic_only"):
            problems.append(f"unknown reward_mode {self.reward_mode!r}")
        if self.iterations < 0:
            problems.append(f"iterations must be >= 0, got {self.iterations}")
        if self.episodes_per_iter < 1:
            problems.append("episodes_per_iter must be >= 1")
        if self.episode_length < 1:
            problems.append("episode_length must be >= 1")
        if self.profile not in PROFILES:
            problems.append(f"unknown profile {self.profile!r} (desk|paper)")
        if self.alpha_mode not in ("uniform", "fixed"):
            problems.append(f"unknown alpha_mode {self.alpha_mode!r}")
        if not 0.0 <= self.alpha_value <= 1.0:
            problems.append(f"alpha_value must be in [0,1], got {self.alpha_value}")
        if self.position_mode not in ("sinusoidal", "normalized", "learned"):
            problems.append(f"unknown position_mode {self.position_mode!r}")
        if self.perception not in ("occupancy", "raycast", "none"):
            problems.append(f"unknown perception {self.perception!r}")
        if self.eval_every < 0:
            problems.append(f"eval_every must be >= 0, got {self.eval_every}")
        if self.eval_episodes < 1:
            problems.append(f"eval_episodes must be >= 1, got {self.eval_episodes}")
        for name, value, least in (
            ("ppo.minibatch", self.ppo.minibatch, 1),
            ("imitation.batch_size", self.imitation.batch_size, 1),
            ("curiosity.batch_size", self.curiosity.batch_size, 1),
            ("imitation.buffer_capacity", self.imitation.buffer_capacity, 1),
            ("ppo.epochs", self.ppo.epochs, 0),
            ("imitation.updates_per_iter", self.imitation.updates_per_iter, 0),
            ("curiosity.updates_per_iter", self.curiosity.updates_per_iter, 0),
        ):
            if value < least:
                problems.append(f"{name} must be >= {least}, got {value}")
        return problems

    def net_profile(self) -> Profile:
        return PROFILES[self.profile]

    def rnd_arch(self) -> Profile:
        """The novelty pair's widths: the profile itself. Kept under this name
        because ``benchmark/gen_triage.py`` builds its ``RNDPair`` from it."""
        return self.net_profile()

    def to_dict(self) -> dict:
        return _dataclass_to_dict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        doc = dict(doc)
        for key, sub in (("ppo", PPOConfig), ("imitation", ImitationConfig), ("curiosity", CuriosityConfig)):
            if key in doc and isinstance(doc[key], dict):
                doc[key] = _dataclass_from_dict(sub, doc[key])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path: str | Path, retired: tuple[str, ...] = ()) -> "TrainConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls.from_dict({k: v for k, v in doc.items() if k not in retired})

    @classmethod
    def from_run_dir(cls, run_dir: str | Path) -> "TrainConfig":
        """A run directory's ``config.json``, minus fields retired since it was written."""
        return cls.from_json_file(Path(run_dir) / "config.json", retired=("workers",))

    def apply_overrides(self, overrides: list[str]) -> "TrainConfig":
        """Apply `dotted.path=value` strings; values parse as JSON when possible."""
        doc = self.to_dict()
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form path=value")
            dotted, _, raw = item.partition("=")
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node = doc
            parts = dotted.strip().split(".")
            for part in parts[:-1]:
                if part not in node or not isinstance(node[part], dict):
                    raise ConfigError(f"override {dotted!r}: no such config group {part!r}")
                node = node[part]
            if parts[-1] not in node:
                raise ConfigError(f"override {dotted!r}: no such config field")
            node[parts[-1]] = value
        return TrainConfig.from_dict(doc)


def _dataclass_to_dict(obj):
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _dataclass_to_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_dataclass_to_dict(v) for v in obj]
    return obj


def _dataclass_from_dict(cls, doc: dict):
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown fields for {cls.__name__}: {sorted(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[name] = value
    return cls(**kwargs)
