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
import reprlib
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import nn
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


def _is_int(v) -> bool:
    return type(v) is int  # a bool is not an int here


# What a map document field must hold, and the test for it.
_INT = ("an int", _is_int)
_BOOL = ("a bool", lambda v: type(v) is bool)
_STR = ("a string", lambda v: type(v) is str)
_LIST = ("a list", lambda v: type(v) is list)
_OBJECT = ("an object", lambda v: type(v) is dict)
_VEC3 = ("[x, y, z] ints", lambda v: type(v) is list and len(v) == 3 and all(map(_is_int, v)))
_RUN = (
    "[count, code] ints, count >= 1 and code 0..255",
    lambda v: type(v) is list and len(v) == 2 and all(map(_is_int, v))
    and v[0] >= 1 and 0 <= v[1] <= 255,
)


def _equal(value) -> tuple:
    return (repr(value), lambda v: type(v) is type(value) and v == value)


def _typed(value, kind: tuple, where: str):
    """``value``, if it passes ``kind``'s test; else a MapFormatError naming ``where``."""
    if not kind[1](value):
        raise MapFormatError(f"{where}: expected {kind[0]}, got {reprlib.repr(value)}")
    return value


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
    runs = [_typed(run, _RUN, f"voxels.layers[{y}][{i}]") for i, run in enumerate(runs)]
    cells = sum(count for count, _ in runs)  # summed first: a huge count allocates nothing
    if cells != nx * nz:
        raise MapFormatError(f"voxels.layers[{y}]: {cells} cells, expected {nx * nz}")
    counts, codes = zip(*runs)
    return np.repeat(np.array(codes, dtype=np.uint8), counts).reshape(nz, nx).T


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


_REQUIRED = object()


def _require(doc: dict, key: str, where: str, kind: tuple, default=_REQUIRED):
    """``doc[key]`` (or ``default`` where ``doc`` has no ``key``) checked by
    _typed, with ``where`` the path of ``doc`` ("" for the document)."""
    if key not in doc and default is _REQUIRED:
        raise MapFormatError(f"{where or 'map document'}: missing field {key!r}")
    return _typed(doc.get(key, default), kind, f"{where}.{key}" if where else key)


def _entries(doc: dict, key: str, where: str, kind: tuple, default=_REQUIRED) -> list:
    """The list ``doc[key]`` (see _require), each entry checked by _typed."""
    name = f"{where}.{key}" if where else key
    values = _require(doc, key, where, _LIST, default)
    return [_typed(v, kind, f"{name}[{i}]") for i, v in enumerate(values)]


def _voxels(doc: dict, key: str, where: str) -> list[tuple[int, int, int]]:
    return [tuple(v) for v in _entries(doc, key, where, _VEC3)]


def map_from_dict(doc: dict) -> VoxelMap:
    """A map from its JSON object, validated; a missing or wrongly typed
    field is a MapFormatError naming the field."""
    _require(doc, "format_version", "", _equal(MAP_FORMAT_VERSION))
    dims = nx, ny, nz = tuple(_require(doc, "dims", "", _VEC3))
    if min(dims) < 1:
        raise MapFormatError(f"dims: all entries must be >= 1, got {dims}")
    voxdoc = _require(doc, "voxels", "", _OBJECT)
    _require(voxdoc, "encoding", "voxels", _equal("rle-y-layers"))
    layers = _entries(voxdoc, "layers", "voxels", _LIST)
    if len(layers) != ny:
        raise MapFormatError(f"voxels.layers: got {len(layers)} layers, expected {ny}")
    voxels = np.zeros(dims, dtype=np.uint8)
    for y, runs in enumerate(layers):
        voxels[:, y, :] = rle_decode_layer(runs, nx, nz, y)

    def objects(key: str) -> list[tuple[str, dict]]:
        return [(f"{key}[{i}]", o) for i, o in enumerate(_entries(doc, key, "", _OBJECT, []))]

    goals = [
        GoalRegion(
            id=_require(g, "id", where, _INT),
            voxels=frozenset(_voxels(g, "voxels", where)),
            active=_require(g, "active", where, _BOOL, True),
        )
        for where, g in objects("goals")
    ]
    bugs = [
        BugRegion(
            kind=_require(b, "kind", where, _STR),
            voxels=frozenset(_voxels(b, "voxels", where)),
        )
        for where, b in objects("bugs")
    ]
    platforms = [
        MovingPlatform(
            footprint=tuple(_voxels(p, "footprint", where)),
            axis=_require(p, "axis", where, _STR),
            amplitude=_require(p, "amplitude", where, _INT),
            period=_require(p, "period", where, _INT),
        )
        for where, p in objects("platforms")
    ]
    vmap = VoxelMap(
        name=_require(doc, "name", "", _STR, "unnamed"),
        dims=dims,
        voxels=voxels,
        spawn=tuple(_require(doc, "spawn", "", _VEC3)),
        goals=goals,
        bugs=bugs,
        platforms=platforms,
    )
    vmap.validate()
    return vmap


def load_map(path: str | Path) -> VoxelMap:
    return map_from_dict(nn.read_json_object(path, MapFormatError))


def save_map(vmap: VoxelMap, path: str | Path) -> None:
    nn.write_atomic(path, json.dumps(map_to_dict(vmap), indent=1, sort_keys=True) + "\n")


def save_demo_script(
    path: str | Path, map_name: str, goal_id: int, actions: Sequence[Action]
) -> None:
    lines = [
        f"format_version: {DEMO_FORMAT_VERSION}",
        f"map: {map_name}",
        f"goal: {goal_id}",
    ]
    lines.extend(ACTION_NAMES[a] for a in actions)
    nn.write_atomic(path, "\n".join(lines) + "\n")


def read_script(path: str | Path) -> tuple[dict[str, str], list[Action]]:
    """The ``key: value`` header lines of a script and the action names after
    them, one per line; blank lines and ``#`` comments are skipped."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
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
