"""Observation encoders: sinusoidal position codes, occupancy cubes, ray casts.

Everything here reports the *semantic* world only. Planted bugs are physics
divergences, so encoders must be (and are) blind to them: observations built
with bugs enabled or disabled are identical for identical states.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .world import (
    AGENT_CODE,
    AgentState,
    SOLID,
    Vec3,
    VoxelMap,
)


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


def normalized_position(pos3: Vec3, dims: Vec3) -> np.ndarray:
    return np.array([pos3[i] / dims[i] for i in range(3)], dtype=np.float64)


def agent_info_vector(state: AgentState) -> np.ndarray:
    """Flags plus last displacement and its unit direction (9 values)."""
    dx, dy, dz = state.last_disp
    norm = sqrt(dx * dx + dy * dy + dz * dz)
    if norm > 0:
        ux, uy, uz = dx / norm, dy / norm, dz / norm
    else:
        ux = uy = uz = 0.0
    return np.array(
        [
            1.0 if state.grounded else 0.0,
            1.0 if state.climbing else 0.0,
            1.0 if state.double_jump_available else 0.0,
            float(dx),
            float(dy),
            float(dz),
            ux,
            uy,
            uz,
        ],
        dtype=np.float64,
    )


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
    out = np.zeros(48, dtype=np.float64)
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
    """Caches per-map lookup tables so per-step observation building is cheap."""

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
        r = L // 2
        self._padded = np.full(
            (nx + 2 * r, ny + 2 * r, nz + 2 * r), SOLID, dtype=np.uint8
        )
        self._padded[r : r + nx, r : r + ny, r : r + nz] = vmap.voxels
        self._r = r

    def occupancy(self, state: AgentState, tick: int = 0) -> np.ndarray:
        L, r = self.L, self._r
        x, y, z = state.pos
        out = self._padded[x : x + L, y : y + L, z : z + L].copy()
        for p in self.map.platforms:
            for (px, py, pz) in p.cells_at(tick):
                ix, iy, iz = px - x + r, py - y + r, pz - z + r
                if 0 <= ix < L and 0 <= iy < L and 0 <= iz < L:
                    out[ix, iy, iz] = SOLID
        out[r, r, r] = AGENT_CODE
        return out

    def position_code(self, pos: Vec3) -> np.ndarray:
        return np.concatenate(
            [self._pe_tables[i][pos[i]] for i in range(3)]
        )
