"""Observation encoders: sinusoidal position codes, occupancy cubes, ray casts.

Everything here reports the *semantic* world only. Planted bugs are physics
divergences, so encoders must be (and are) blind to them: observations built
with bugs enabled or disabled are identical for identical states.

``ObservationEncoder`` builds the network inputs of a whole batch of states
(positions, earlier positions, flags and tick, as a ``Replay`` holds them)
as gathers from tables built once per map: one padded occupancy volume per
platform phase with the platform cells baked in, the flat offsets of the L^3
window, the marching offsets of the ray fan, and one sinusoidal code table
per axis. The one-state calls (``position_code`` of a voxel,
``agent_info_vector`` of an ``AgentState``) are one-row calls of the same code.
"""

from __future__ import annotations

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
RAY_DIM = 48  # ObservationEncoder.rays: (distance, hit code) of 24 rays


PE_BASE = 10000.0  # the code's wavelengths rise geometrically from 2 pi toward 2 pi PE_BASE


def positional_embedding(pos: int, d: int = 32) -> np.ndarray:
    """sin/cos code of a non-negative integer coordinate, d values in [-1, 1].

    Element 2i is sin(pos / PE_BASE^(2i/d)), element 2i+1 the matching cosine.
    """
    if d <= 0 or d % 2 != 0:
        raise ValueError(f"embedding size d must be a positive even integer, got {d}")
    if pos < 0:
        raise ValueError(f"pos must be >= 0, got {pos}")
    half = np.arange(d // 2, dtype=np.float64)
    angles = pos / np.power(PE_BASE, 2.0 * half / d)
    out = np.empty(d, dtype=np.float64)
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


class ObservationEncoder:
    """Per-map lookup tables; every feature row of a batch is a gather."""

    def __init__(self, vmap: VoxelMap, L: int = 7, pe_d: int = 32):
        if L < 1 or L % 2 == 0:
            raise ValueError(f"L must be odd and positive, got {L}")
        self.map = vmap
        self.L = L
        self.pe_d = pe_d
        nx, ny, nz = vmap.dims
        self._pe_tables = [
            np.stack([positional_embedding(i, pe_d) for i in range(n)])
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
        # Ray i from voxel p samples floor((p + 0.5) + k d_i) for k = 1 ..
        # int(diagonal): the (24, K, 3) table of k d_i.
        self._diagonal = sqrt(nx * nx + ny * ny + nz * nz)
        self._ray_steps = np.arange(1, int(self._diagonal) + 1)[:, None] * _RAY_DIRS[:, None]

    def cubes(self, pos: np.ndarray, tick) -> np.ndarray:
        """The flat L^3 occupancy cube around each voxel of ``pos`` (m, 3) at
        ``tick`` (one for all, or one per voxel): out of bounds and platforms
        solid, the agent's code at the centre."""
        phase = np.asarray(tick) % self._period
        out = self._volumes[phase[..., None], (pos @ self._strides)[:, None] + self._window]
        out[:, len(self._window) // 2] = AGENT_CODE
        return out

    def rays(self, pos: np.ndarray, tick) -> np.ndarray:
        """24 lattice rays (8 compass x 3 elevations) from each voxel of
        ``pos`` (m, 3) at ``tick`` (one for all, or one per voxel): one row of
        RAY_DIM values (distance, hit code) per voxel. A ray stops at its
        first step k into a non-empty cell, platforms included, or out of the
        map (a SOLID hit), and reports k / diagonal; a ray that hits nothing
        within int(diagonal) steps reports (1.0, 0)."""
        cells = np.floor((pos + 0.5)[:, None, None] + self._ray_steps).astype(np.intp)
        inside = ((cells >= 0) & (cells < self.map.dims)).all(axis=-1)
        flat = np.where(inside, (cells + self.L // 2) @ self._strides, 0)
        phase = np.asarray(tick) % self._period
        codes = np.where(inside, self._volumes[phase[..., None, None], flat], SOLID)
        hit = codes != 0
        k = hit.argmax(axis=-1)[..., None]  # (m, 24, 1): the first hit's step - 1
        out = np.empty((len(pos), len(_RAY_DIRS), 2))
        out[..., 0] = np.where(hit.any(axis=-1), (k[..., 0] + 1) / self._diagonal, 1.0)
        out[..., 1] = np.take_along_axis(codes, k, axis=-1)[..., 0]  # 0 when nothing is hit
        return out.reshape(len(pos), RAY_DIM)

    def position_code(self, pos) -> np.ndarray:
        """The X, Y and Z codes of a voxel, concatenated; an (..., 3) array
        of voxels gives one row each."""
        pos = np.asarray(pos)
        return np.concatenate(
            [table[pos[..., i]] for i, table in enumerate(self._pe_tables)], axis=-1
        )

    def features(
        self,
        pos,
        prev,
        grounded,
        climbing,
        double_jump,
        tick,
        position_mode: str = "sinusoidal",
        perception: str = "occupancy",
    ) -> dict[str, np.ndarray]:
        """Network inputs of a batch of states, one row each: the cube
        ``occ`` at ``tick``, the sinusoidal ``pos_pe``, the position input
        of ``position_mode`` (``pos``, or ``pos_idx`` when learned), ``info``,
        and ``rays`` when ``perception`` is raycast. ``pos`` and ``prev`` are
        (m, 3) voxels at s_t and s_{t-1}. The cube is built under every
        perception: the discriminator reads it even when the policy does not."""
        out = {"occ": self.cubes(pos, tick), "pos_pe": self.position_code(pos)}
        if perception == "raycast":
            out["rays"] = self.rays(pos, tick)
        if position_mode == "sinusoidal":
            out["pos"] = out["pos_pe"]
        elif position_mode == "normalized":
            out["pos"] = normalized_position(pos, self.map.dims)
        else:
            out["pos_idx"] = pos.astype(np.int64)
        out["info"] = agent_info(pos - prev, grounded, climbing, double_jump)
        return out
