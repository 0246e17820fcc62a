"""Observation encoders: sinusoidal position codes, occupancy cubes, ray casts.

Everything here reports the *semantic* world only. Planted bugs are physics
divergences, so encoders must be (and are) blind to them: observations built
with bugs enabled or disabled are identical for identical states.

``ObservationEncoder`` builds the network inputs of a whole batch of states
(positions, earlier positions, flags and tick, as a ``Replay`` holds them)
as gathers from tables built once per map: one padded occupancy volume per
platform phase with the platform cells baked in, the flat offsets of the L^3
window, and one sinusoidal code table per axis. The one-state calls
(``position_code`` of a voxel, ``agent_info_vector`` of an ``AgentState``)
are one-row calls of the same code. Ray casts stay a per-state march.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, lcm, sin, sqrt

import numpy as np

from .world import (
    AGENT_CODE,
    AgentState,
    SOLID,
    Vec3,
    VoxelMap,
)

INFO_DIM = 9  # agent_info: 3 flags, the displacement and its unit direction
RAY_DIM = 48  # raycast_observation: (distance, hit code) of 24 rays


@dataclass(frozen=True)
class PEConfig:
    """Sinusoidal code shape: d values per coordinate, geometric wavelengths."""

    d: int = 32
    base: float = 10000.0

    def __post_init__(self):
        if self.d <= 0 or self.d % 2 != 0:
            raise ValueError(f"embedding size d must be a positive even integer, got {self.d}")
        if self.base <= 1:
            raise ValueError(f"base must be > 1, got {self.base}")


def positional_embedding(pos: int, cfg: PEConfig = PEConfig()) -> np.ndarray:
    """sin/cos code of a non-negative integer coordinate, values in [-1, 1].

    Element 2i is sin(pos / base^(2i/d)), element 2i+1 the matching cosine.
    """
    if pos < 0:
        raise ValueError(f"pos must be >= 0, got {pos}")
    half = np.arange(cfg.d // 2, dtype=np.float64)
    angles = pos / np.power(cfg.base, 2.0 * half / cfg.d)
    out = np.empty(cfg.d, dtype=np.float64)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles)
    return out


def normalized_position(pos, dims: Vec3) -> np.ndarray:
    """Each coordinate over the map's extent; ``pos`` is a voxel or an
    (..., 3) array of them."""
    return np.asarray(pos) / np.asarray(dims)


def agent_info(disp, grounded, climbing, double_jump) -> np.ndarray:
    """Flags plus last displacement and its unit direction, INFO_DIM values
    per state; ``disp`` has a trailing axis of 3 over the flags' batch shape."""
    disp = np.asarray(disp)
    norm = np.sqrt((disp * disp).sum(axis=-1, keepdims=True))
    unit = np.divide(disp, norm, out=np.zeros(disp.shape), where=norm > 0)
    flags = np.stack([grounded, climbing, double_jump], axis=-1)
    return np.concatenate([flags, disp, unit], axis=-1, dtype=np.float64)


def agent_info_vector(state: AgentState) -> np.ndarray:
    """One state's ``agent_info`` row."""
    return agent_info(state.last_disp, state.grounded, state.climbing, state.double_jump_available)


_RAY_ELEVATIONS = (-30.0, 0.0, 30.0)
_RAY_COMPASS = (
    (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1),
)


def _ray_directions() -> np.ndarray:
    dirs = []
    for ex in _RAY_ELEVATIONS:
        e = np.deg2rad(ex)
        for hx, hz in _RAY_COMPASS:
            hn = sqrt(hx * hx + hz * hz)
            dirs.append((cos(e) * hx / hn, sin(e), cos(e) * hz / hn))
    return np.array(dirs, dtype=np.float64)


_RAY_DIRS = _ray_directions()


def raycast_observation(
    vmap: VoxelMap, state: AgentState, max_range: float | None = None, tick: int = 0
) -> np.ndarray:
    """24 lattice rays (8 compass x 3 elevations), each (distance, hit code).

    Distances count whole-voxel marching steps, normalized by `max_range`
    (default: map diagonal). A ray that exits the fan range reports (1.0, 0).
    """
    nx, ny, nz = vmap.dims
    if max_range is None:
        max_range = sqrt(nx * nx + ny * ny + nz * nz)
    plat_cells = set()
    for p in vmap.platforms:
        plat_cells.update(p.cells_at(tick))
    cx, cy, cz = (state.pos[0] + 0.5, state.pos[1] + 0.5, state.pos[2] + 0.5)
    out = np.zeros(RAY_DIM, dtype=np.float64)
    steps = int(max_range)
    for i, (dx, dy, dz) in enumerate(_RAY_DIRS):
        dist = 1.0
        code = 0
        for k in range(1, steps + 1):
            vx = int(np.floor(cx + k * dx))
            vy = int(np.floor(cy + k * dy))
            vz = int(np.floor(cz + k * dz))
            if not (0 <= vx < nx and 0 <= vy < ny and 0 <= vz < nz):
                dist, code = min(k / max_range, 1.0), SOLID
                break
            cell_code = int(vmap.voxels[vx, vy, vz])
            if cell_code == 0 and (vx, vy, vz) in plat_cells:
                cell_code = SOLID
            if cell_code != 0:
                dist, code = min(k / max_range, 1.0), cell_code
                break
        out[2 * i] = dist
        out[2 * i + 1] = float(code)
    return out


class ObservationEncoder:
    """Per-map lookup tables; every feature row of a batch is a gather."""

    def __init__(self, vmap: VoxelMap, L: int = 7, pe: PEConfig = PEConfig()):
        if L < 1 or L % 2 == 0:
            raise ValueError(f"L must be odd and positive, got {L}")
        self.map = vmap
        self.L = L
        self.pe = pe
        nx, ny, nz = vmap.dims
        self._pe_tables = [
            np.stack([positional_embedding(i, pe) for i in range(n)])
            for n in (nx, ny, nz)
        ]
        # Voxel p's cube is the L^3 window whose corner is p in the map padded
        # by L // 2 voxels of solid, one volume per platform phase.
        r = L // 2
        shape = (nx + 2 * r, ny + 2 * r, nz + 2 * r)
        self._period = lcm(*(p.period for p in vmap.platforms))
        volumes = np.full((self._period, *shape), SOLID, dtype=np.uint8)
        volumes[:, r : r + nx, r : r + ny, r : r + nz] = vmap.voxels
        for phase, volume in enumerate(volumes):
            for p in vmap.platforms:
                volume[tuple((np.array(sorted(p.cells_at(phase))) + r).T)] = SOLID
        self._volumes = volumes.reshape(self._period, -1)
        self._strides = s = np.array([shape[1] * shape[2], shape[2], 1])
        w = np.arange(L)
        self._window = (w[:, None, None] * s[0] + w[:, None] * s[1] + w).reshape(-1)

    def cubes(self, pos: np.ndarray, tick) -> np.ndarray:
        """The flat L^3 occupancy cube around each voxel of ``pos`` (m, 3) at
        ``tick`` (one for all, or one per voxel): out of bounds and platforms
        solid, the agent's code at the centre."""
        phase = np.asarray(tick) % self._period
        out = self._volumes[phase[..., None], (pos @ self._strides)[:, None] + self._window]
        out[:, len(self._window) // 2] = AGENT_CODE
        return out

    def position_code(self, pos) -> np.ndarray:
        """The X, Y and Z codes of a voxel, concatenated; an (..., 3) array
        of voxels gives one row each."""
        pos = np.asarray(pos)
        return np.concatenate(
            [table[pos[..., i]] for i, table in enumerate(self._pe_tables)], axis=-1
        )

    def features(
        self, pos, prev, grounded, climbing, double_jump, tick, position_mode: str = "sinusoidal"
    ) -> dict[str, np.ndarray]:
        """Network inputs of a batch of states, one row each: the cube
        ``occ`` at ``tick``, the sinusoidal ``pos_pe``, the position input
        of ``position_mode`` (``pos``, or ``pos_idx`` when learned) and
        ``info``. ``pos`` and ``prev`` are (m, 3) voxels at s_t and s_{t-1}."""
        out = {"occ": self.cubes(pos, tick), "pos_pe": self.position_code(pos)}
        if position_mode == "sinusoidal":
            out["pos"] = out["pos_pe"]
        elif position_mode == "normalized":
            out["pos"] = normalized_position(pos, self.map.dims)
        else:
            out["pos_idx"] = pos.astype(np.int64)
        out["info"] = agent_info(pos - prev, grounded, climbing, double_jump)
        return out
