"""Versioned file formats: JSON map documents and plain-text demo scripts.

Map documents store the static voxel grid as run-length-encoded horizontal
layers, one layer per y level (bottom first). Within a layer, cells are
flattened z-row by z-row with x varying fastest, and encoded as
``[count, code]`` pairs.

Demo scripts are plain text: ``key: value`` header lines (format_version, map,
goal) followed by one action name per line. Blank lines and ``#`` comments are
ignored.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .world import (
    Action,
    BugRegion,
    GoalRegion,
    MapFormatError,
    MapInvariantError,
    MovingPlatform,
    NAME_TO_ACTION,
    ACTION_NAMES,
    VoxelMap,
)

MAP_FORMAT_VERSION = 1
DEMO_FORMAT_VERSION = 1


def rle_encode_layer(layer: np.ndarray) -> list[list[int]]:
    """Encode one (nx, nz) layer as [count, code] runs, z rows then x columns."""
    flat = layer.T.reshape(-1)  # z outer, x inner
    runs: list[list[int]] = []
    for v in flat:
        v = int(v)
        if runs and runs[-1][1] == v:
            runs[-1][0] += 1
        else:
            runs.append([1, v])
    return runs


def rle_decode_layer(runs: Iterable[Sequence[int]], nx: int, nz: int, y: int) -> np.ndarray:
    cells: list[int] = []
    for i, run in enumerate(runs):
        if len(run) != 2:
            raise MapFormatError(f"layer {y} run {i} must be [count, code], got {run!r}")
        count, code = int(run[0]), int(run[1])
        if count < 1:
            raise MapFormatError(f"layer {y} run {i} has count {count} < 1")
        cells.extend([code] * count)
    if len(cells) != nx * nz:
        raise MapFormatError(
            f"layer {y} decodes to {len(cells)} cells, expected {nx * nz}"
        )
    return np.array(cells, dtype=np.uint8).reshape(nz, nx).T


def map_to_dict(vmap: VoxelMap) -> dict:
    nx, ny, nz = vmap.dims
    return {
        "format_version": MAP_FORMAT_VERSION,
        "name": vmap.name,
        "dims": list(vmap.dims),
        "spawn": list(vmap.spawn),
        "voxels": {
            "encoding": "rle-y-layers",
            "layers": [rle_encode_layer(vmap.voxels[:, y, :]) for y in range(ny)],
        },
        "goals": [
            {"id": g.id, "active": g.active, "voxels": sorted(map(list, g.voxels))}
            for g in vmap.goals
        ],
        "bugs": [
            {"kind": b.kind, "voxels": sorted(map(list, b.voxels))} for b in vmap.bugs
        ],
        "platforms": [
            {
                "footprint": sorted(map(list, p.footprint)),
                "axis": p.axis,
                "amplitude": p.amplitude,
                "period": p.period,
            }
            for p in vmap.platforms
        ],
    }


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise MapFormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _vec3(raw, where: str) -> tuple[int, int, int]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise MapFormatError(f"{where}: expected [x, y, z], got {raw!r}")
    return (int(raw[0]), int(raw[1]), int(raw[2]))


def map_from_dict(doc: dict) -> VoxelMap:
    version = _require(doc, "format_version", "map document")
    if version != MAP_FORMAT_VERSION:
        raise MapFormatError(
            f"map document: unsupported format_version {version}, "
            f"expected {MAP_FORMAT_VERSION}"
        )
    dims = _vec3(_require(doc, "dims", "map document"), "dims")
    nx, ny, nz = dims
    if min(dims) < 1:
        raise MapFormatError(f"dims: all entries must be >= 1, got {dims}")
    voxdoc = _require(doc, "voxels", "map document")
    if voxdoc.get("encoding") != "rle-y-layers":
        raise MapFormatError(
            f"voxels.encoding: unsupported {voxdoc.get('encoding')!r}"
        )
    layers = _require(voxdoc, "layers", "voxels")
    if len(layers) != ny:
        raise MapFormatError(f"voxels.layers: got {len(layers)} layers, expected {ny}")
    voxels = np.zeros(dims, dtype=np.uint8)
    for y, runs in enumerate(layers):
        voxels[:, y, :] = rle_decode_layer(runs, nx, nz, y)

    goals = [
        GoalRegion(
            id=int(_require(g, "id", f"goals[{i}]")),
            voxels=frozenset(_vec3(v, f"goals[{i}].voxels[{j}]") for j, v in enumerate(_require(g, "voxels", f"goals[{i}]"))),
            active=bool(g.get("active", True)),
        )
        for i, g in enumerate(doc.get("goals", []))
    ]
    bugs = [
        BugRegion(
            kind=str(_require(b, "kind", f"bugs[{i}]")),
            voxels=frozenset(_vec3(v, f"bugs[{i}].voxels[{j}]") for j, v in enumerate(_require(b, "voxels", f"bugs[{i}]"))),
        )
        for i, b in enumerate(doc.get("bugs", []))
    ]
    platforms = [
        MovingPlatform(
            footprint=tuple(
                _vec3(v, f"platforms[{i}].footprint[{j}]")
                for j, v in enumerate(_require(p, "footprint", f"platforms[{i}]"))
            ),
            axis=str(_require(p, "axis", f"platforms[{i}]")),
            amplitude=int(_require(p, "amplitude", f"platforms[{i}]")),
            period=int(_require(p, "period", f"platforms[{i}]")),
        )
        for i, p in enumerate(doc.get("platforms", []))
    ]
    vmap = VoxelMap(
        name=str(doc.get("name", "unnamed")),
        dims=dims,
        voxels=voxels,
        spawn=_vec3(_require(doc, "spawn", "map document"), "spawn"),
        goals=goals,
        bugs=bugs,
        platforms=platforms,
    )
    vmap.validate()
    return vmap


def load_map(path: str | Path) -> VoxelMap:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise MapFormatError(f"cannot read map {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MapFormatError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise MapFormatError(f"{path}: top level must be an object")
    return map_from_dict(doc)


def save_map(vmap: VoxelMap, path: str | Path) -> None:
    Path(path).write_text(json.dumps(map_to_dict(vmap), indent=1, sort_keys=True) + "\n")


def save_demo_script(
    path: str | Path, map_name: str, goal_id: int, actions: Sequence[Action]
) -> None:
    lines = [
        f"format_version: {DEMO_FORMAT_VERSION}",
        f"map: {map_name}",
        f"goal: {goal_id}",
    ]
    lines.extend(ACTION_NAMES[a] for a in actions)
    Path(path).write_text("\n".join(lines) + "\n")


def read_script(path: str | Path) -> tuple[dict[str, str], list[Action]]:
    """The ``key: value`` header lines of a script and the action names after
    them, one per line; blank lines and ``#`` comments are skipped."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as e:
        raise MapFormatError(f"cannot read {path}: {e}") from e
    header: dict[str, str] = {}
    actions: list[Action] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line and not actions:
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()
            continue
        act = NAME_TO_ACTION.get(line)
        if act is None:
            raise MapFormatError(f"{path}:{lineno}: unknown action {line!r}")
        actions.append(act)
    return header, actions


def load_demo_script(path: str | Path) -> tuple[str, int, list[Action]]:
    """Parse a demo script; returns (map name, goal id, actions)."""
    header, actions = read_script(path)
    for key in ("format_version", "map", "goal"):
        if key not in header:
            raise MapFormatError(f"{path}: missing {key!r} header")
    try:
        version, goal = int(header["format_version"]), int(header["goal"])
    except ValueError as e:
        raise MapFormatError(f"{path}: header value is not an integer ({e})") from e
    if version != DEMO_FORMAT_VERSION:
        raise MapFormatError(f"{path}: unsupported format_version {version}")
    if not actions:
        raise MapFormatError(f"{path}: no actions listed")
    return header["map"], goal, actions


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file (maps and demo scripts)."""
    return Path(resources.files("voxhunt") / "fixtures" / name)


def load_fixture_map(name: str) -> VoxelMap:
    return load_map(fixture_path(f"{name}.json"))
