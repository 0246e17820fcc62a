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
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import nn
from .curiosity import CuriosityConfig
from .imitation import ImitationConfig
from .policy import PPOConfig


class ConfigError(Exception):
    pass


# Settings removed since run directories were first written, by dotted name.
# An old run's config.json still loads for triage and export; a training
# config that names one is rejected as an unknown field.
RETIRED = ("workers", "ppo.normalize_advantages", "imitation.fd_step", "curiosity.normalize")


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


# What a value must be, by the type of its field's default: a bool is never
# a number, and an int is accepted where a float is expected.
TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    list: ("a list of strings", lambda v: type(v) is list and all(type(p) is str for p in v)),
}


def _at_least(low):
    return f">= {low}", lambda v: v >= low


def _one_of(*choices):
    return f"one of {'|'.join(choices)}", lambda v: v in choices


# NaN fails every comparison, so none of these bounds admits it.
_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = ("finite and >= 0", lambda v: 0 <= v < math.inf)
_UNIT = ("in [0, 1]", lambda v: 0 <= v <= 1)


# The bounds and choices of the settings that have them, by dotted name,
# checked once a value has its field's type.
LIMITS = {
    "iterations": _at_least(0),
    "episodes_per_iter": _at_least(1),
    "episode_length": _at_least(1),
    "profile": _one_of(*PROFILES),
    "alpha_mode": _one_of("uniform", "fixed"),
    "alpha_value": _UNIT,
    "reward_mode": _one_of("full", "extrinsic_only"),
    "position_mode": _one_of("sinusoidal", "normalized", "learned"),
    "perception": _one_of("occupancy", "raycast", "none"),
    "eval_every": _at_least(0),
    "eval_episodes": _at_least(1),
    "stop_at_goal_rate": _UNIT,
    "ppo.lr": _POSITIVE,
    "ppo.gamma": _UNIT,
    "ppo.gae_lambda": _UNIT,
    "ppo.clip": ("in (0, 1)", lambda v: 0 < v < 1),
    "ppo.entropy_coef": _NON_NEGATIVE,
    "ppo.value_coef": _NON_NEGATIVE,
    "ppo.epochs": _at_least(0),
    "ppo.minibatch": _at_least(1),
    "imitation.lr": _POSITIVE,
    "imitation.gp_coef": _NON_NEGATIVE,
    "imitation.batch_size": _at_least(1),
    "imitation.buffer_capacity": _at_least(1),
    "imitation.updates_per_iter": _at_least(0),
    "curiosity.lr": _POSITIVE,
    "curiosity.batch_size": _at_least(1),
    "curiosity.updates_per_iter": _at_least(0),
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
        """Every problem of this config, one line each, naming its field."""
        bad = _field_problems(self, TrainConfig())
        problems = list(bad.values())
        if "map_path" not in bad:
            if not self.map_path:
                problems.append("map_path is required")
            elif not Path(resolve_path(self.map_path)).exists():
                problems.append(f"map_path does not exist: {self.map_path}")
        if "demo_paths" not in bad:
            for p in self.demo_paths:
                if not Path(resolve_path(p)).exists():
                    problems.append(f"demo path does not exist: {p}")
            if self.reward_mode == "full" and not self.demo_paths:
                problems.append("reward_mode 'full' requires at least one demo path")
        return problems

    def net_profile(self) -> Profile:
        return PROFILES[self.profile]

    def rnd_arch(self) -> Profile:
        """The novelty pair's widths: the profile itself. Kept under this name
        because ``benchmark/gen_triage.py`` builds its ``RNDPair`` from it."""
        return self.net_profile()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """A config from its JSON object; ConfigError names unknown fields."""
        return _dataclass_from_dict(cls, doc)

    @classmethod
    def from_json_file(cls, path: str | Path, retired: tuple[str, ...] = ()) -> "TrainConfig":
        doc = nn.read_json_object(path, ConfigError)
        for dotted in retired:
            *group, key = dotted.split(".")
            node = doc.get(group[0]) if group else doc
            if isinstance(node, dict):
                node.pop(key, None)
        return cls.from_dict(doc)

    @classmethod
    def from_run_dir(cls, run_dir: str | Path) -> "TrainConfig":
        """A run directory's ``config.json``, minus fields retired since it was
        written; ConfigError names the file and each field ``validate`` rejects."""
        path = Path(run_dir) / "config.json"
        cfg = cls.from_json_file(path, retired=RETIRED)
        problems = cfg.validate()
        if problems:
            raise ConfigError(f"{path}: {'; '.join(problems)}")
        return cfg

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


def _field_problems(group, default, prefix: str = "") -> dict[str, str]:
    """The problem of each field of ``group`` that does not have the type of
    its value in ``default``, or breaks its LIMITS, by dotted name; a nested
    group is checked field by field once it is an object."""
    problems = {}
    for f in dataclasses.fields(default):
        name, value, like = prefix + f.name, getattr(group, f.name), getattr(default, f.name)
        if dataclasses.is_dataclass(like):
            if type(value) is not type(like):
                problems[name] = f"{name} must be an object, got {value!r}"
            else:
                problems.update(_field_problems(value, like, f"{name}."))
            continue
        kind, is_kind = TYPES[type(like)]
        if not is_kind(value):
            problems[name] = f"{name} must be {kind}, got {value!r}"
        elif name in LIMITS and not LIMITS[name][1](value):
            problems[name] = f"{name} must be {LIMITS[name][0]}, got {value!r}"
    return problems


def _dataclass_from_dict(cls, doc: dict, prefix: str = ""):
    """``cls`` built from ``doc``, each nested group that ``doc`` holds as an
    object built the same way; ConfigError names unknown fields by dotted name."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = [prefix + key for key in doc if key not in fields]
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    kwargs = dict(doc)
    for key, value in doc.items():
        group = fields[key].default_factory
        if dataclasses.is_dataclass(group) and isinstance(value, dict):
            kwargs[key] = _dataclass_from_dict(group, value, f"{prefix}{key}.")
    return cls(**kwargs)
