"""Deterministic discrete-physics voxel world with goals, platforms and planted bugs.

The world is a lattice of semantic voxel classes (0 empty, 1 solid, 2
climbable; 3 is reserved for the agent in observations). Physics advances one
voxel per axis per tick in a fixed phase order, so a trajectory is a pure
function of (map, action sequence).

Planted bug regions make physics diverge from what observations report:

* ``missing_collision``   -- voxels that look solid but are passable.
* ``unintended_climbable`` -- voxels that look solid but behave like a ladder.
* ``infinite_jump_glitch`` -- an empty volume where the double-jump flag
  recharges every tick.

Observations never see physics, only semantics, so the same map stepped with
``bugs_enabled=False`` yields identical observations for identical states.

A batch's states live only in the time-major arrays of a ``Replay``: each
agent is a column, and its state s_t in row t is a flat index into the map
padded with collision, plus its jump ticks and flags. ``Physics.start`` makes
a Replay with every agent at spawn as s_0, and ``Physics.step``, the only
implementation of the step rules, reads row t's states and actions and
writes s_{t+1} into row t + 1 in place, every rule a lookup in per-phase
tables built once per map. It also writes row t of ``Replay.bugs``, one bit
mask per agent: bit i is set when s_{t+1} is inside bug region i or, for an
unintended-climbable region, climbs on it. ``Physics.replay`` plays any
number of scripts of any lengths at once (triage replays a whole dataset in
one call), and training steps its m lockstep episodes in the same way,
choosing row t's actions before each step. ``play_script`` is a one-script
replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from math import lcm
from typing import Sequence

import numpy as np

EMPTY = 0
SOLID = 1
CLIMBABLE = 2
AGENT_CODE = 3

GOAL_REWARD = 10.0

MISSING_COLLISION = "missing_collision"
INFINITE_JUMP_GLITCH = "infinite_jump_glitch"
UNINTENDED_CLIMBABLE = "unintended_climbable"
BUG_KINDS = (MISSING_COLLISION, INFINITE_JUMP_GLITCH, UNINTENDED_CLIMBABLE)

Vec3 = tuple[int, int, int]


class WorldError(Exception):
    """Base error for map and physics problems."""


class MapFormatError(WorldError):
    """Raised when a map or script document cannot be parsed."""


class MapInvariantError(WorldError):
    """Raised when a structurally valid document violates a world invariant."""


class PhysicsError(WorldError):
    """Raised when the physics update cannot produce a legal agent position;
    ``agent`` is the squeezed agent's column in its ``Replay``."""

    def __init__(self, message: str, agent: int | None = None):
        super().__init__(message)
        self.agent = agent


class Action(IntEnum):
    MOVE_N = 0
    MOVE_S = 1
    MOVE_E = 2
    MOVE_W = 3
    MOVE_NE = 4
    MOVE_NW = 5
    MOVE_SE = 6
    MOVE_SW = 7
    JUMP = 8
    WAIT = 9


ACTION_NAMES = {
    Action.MOVE_N: "MoveN",
    Action.MOVE_S: "MoveS",
    Action.MOVE_E: "MoveE",
    Action.MOVE_W: "MoveW",
    Action.MOVE_NE: "MoveNE",
    Action.MOVE_NW: "MoveNW",
    Action.MOVE_SE: "MoveSE",
    Action.MOVE_SW: "MoveSW",
    Action.JUMP: "Jump",
    Action.WAIT: "Wait",
}
NAME_TO_ACTION = {name: act for act, name in ACTION_NAMES.items()}

# Compass on the x/z plane: east is +x, north is +z. Vertical is +y (up).
HORIZONTAL_DELTA = {
    Action.MOVE_N: (0, 1),
    Action.MOVE_S: (0, -1),
    Action.MOVE_E: (1, 0),
    Action.MOVE_W: (-1, 0),
    Action.MOVE_NE: (1, 1),
    Action.MOVE_NW: (-1, 1),
    Action.MOVE_SE: (1, -1),
    Action.MOVE_SW: (-1, -1),
}

_JUMP = int(Action.JUMP)
_ADJACENT_8 = tuple((dx, dz) for dx in (-1, 0, 1) for dz in (-1, 0, 1) if (dx, dz) != (0, 0))


@dataclass(frozen=True, slots=True)
class AgentState:
    """Full physics state of the agent; hashable so searches can key on it."""

    pos: Vec3
    jump_ticks: int = 0
    grounded: bool = True
    climbing: bool = False
    double_jump_available: bool = True
    last_disp: Vec3 = (0, 0, 0)


@dataclass(slots=True)
class GoalRegion:
    id: int
    voxels: frozenset[Vec3]
    active: bool = True


@dataclass(slots=True)
class BugRegion:
    kind: str
    voxels: frozenset[Vec3]


@dataclass(slots=True)
class MovingPlatform:
    """Rigid voxel group oscillating along one axis as a triangle wave."""

    footprint: tuple[Vec3, ...]
    axis: str
    amplitude: int
    period: int

    def cells_at(self, tick: int) -> frozenset[Vec3]:
        off = platform_offset(self, tick)
        ax = "xyz".index(self.axis)
        if off == 0:
            return frozenset(self.footprint)
        moved = []
        for c in self.footprint:
            v = list(c)
            v[ax] += off
            moved.append(tuple(v))
        return frozenset(moved)

    def delta_at(self, tick: int) -> Vec3:
        d = platform_offset(self, tick + 1) - platform_offset(self, tick)
        ax = "xyz".index(self.axis)
        v = [0, 0, 0]
        v[ax] = d
        return tuple(v)


def platform_offset(platform: MovingPlatform, tick: int) -> int:
    """Triangle-wave offset at `tick`: 0 at phase 0, `amplitude` at half period.

    Fractional wave values are rounded toward zero to stay on the lattice.
    """
    period = platform.period
    tm = tick % period
    if tm * 2 <= period:
        raw = 2.0 * platform.amplitude * tm / period
    else:
        raw = 2.0 * platform.amplitude * (period - tm) / period
    return int(raw)  # int() truncates toward zero


@dataclass(slots=True)
class VoxelMap:
    """Static world plus goal, bug and platform annotations.

    ``voxels`` holds semantic classes only. Bug regions are evaluation-time
    ground truth: the agent can never observe them.
    """

    name: str
    dims: Vec3
    voxels: np.ndarray  # uint8 (nx, ny, nz)
    spawn: Vec3
    goals: list[GoalRegion] = field(default_factory=list)
    bugs: list[BugRegion] = field(default_factory=list)
    platforms: list[MovingPlatform] = field(default_factory=list)

    def in_bounds(self, pos: Vec3) -> bool:
        x, y, z = pos
        nx, ny, nz = self.dims
        return 0 <= x < nx and 0 <= y < ny and 0 <= z < nz

    def validate(self) -> None:
        nx, ny, nz = self.dims
        if self.voxels.shape != (nx, ny, nz):
            raise MapInvariantError(
                f"voxel array shape {self.voxels.shape} does not match dims {self.dims}"
            )
        if self.voxels.max(initial=0) > CLIMBABLE:
            bad = np.argwhere(self.voxels > CLIMBABLE)[0]
            raise MapInvariantError(
                f"voxel {tuple(int(v) for v in bad)} uses reserved code "
                f"{int(self.voxels[tuple(bad)])}; only 0..2 may be stored"
            )
        if not self.in_bounds(self.spawn):
            raise MapInvariantError(f"spawn {self.spawn} out of bounds {self.dims}")
        if self.voxels[self.spawn] != EMPTY:
            raise MapInvariantError(f"spawn {self.spawn} is not an empty voxel")

        ids = [g.id for g in self.goals]
        if len(ids) != len(set(ids)):
            raise MapInvariantError(f"goal ids not unique: {ids}")
        for g in self.goals:
            if not g.voxels:
                raise MapInvariantError(f"goal {g.id} has an empty voxel set")
            for v in g.voxels:
                if not self.in_bounds(v):
                    raise MapInvariantError(f"goal {g.id} voxel {v} out of bounds")

        for i, b in enumerate(self.bugs):
            if b.kind not in BUG_KINDS:
                raise MapInvariantError(f"bug {i} has unknown kind {b.kind!r}")
            if not b.voxels:
                raise MapInvariantError(f"bug {i} ({b.kind}) has an empty voxel set")
            want = EMPTY if b.kind == INFINITE_JUMP_GLITCH else SOLID
            for v in b.voxels:
                if not self.in_bounds(v):
                    raise MapInvariantError(f"bug {i} ({b.kind}) voxel {v} out of bounds")
                if self.voxels[v] != want:
                    raise MapInvariantError(
                        f"bug {i} ({b.kind}) voxel {v} must have semantic class "
                        f"{want}, found {int(self.voxels[v])}"
                    )

        for i, p in enumerate(self.platforms):
            if p.axis not in ("x", "y", "z"):
                raise MapInvariantError(f"platform {i} axis {p.axis!r} not in x/y/z")
            if p.period < 2:
                raise MapInvariantError(f"platform {i} period {p.period} < 2")
            if p.amplitude < 0:
                raise MapInvariantError(f"platform {i} amplitude {p.amplitude} < 0")
            if not p.footprint:
                raise MapInvariantError(f"platform {i} has an empty footprint")
            for t in range(p.period):
                for c in p.cells_at(t):
                    if not self.in_bounds(c):
                        raise MapInvariantError(
                            f"platform {i} cell {c} leaves the map at tick {t}"
                        )
                    if self.voxels[c] != EMPTY:
                        raise MapInvariantError(
                            f"platform {i} cell {c} overlaps static voxel at tick {t}"
                        )

        # Spawn must rest on something at tick 0 (static or platform).
        below = (self.spawn[0], self.spawn[1] - 1, self.spawn[2])
        supported = not self.in_bounds(below) or self.voxels[below] in (SOLID, CLIMBABLE)
        if not supported:
            for p in self.platforms:
                if below in p.cells_at(0):
                    supported = True
                    break
        if not supported:
            raise MapInvariantError(f"spawn {self.spawn} has no support below at tick 0")


def first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in first-seen order. Returns the
    index of each number's first occurrence, and every key's number."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return first[order], number[inverse]


class Physics:
    """Tick-update engine for one map, stepping a lockstep batch of agents.

    ``bugs_enabled=False`` strips every bug region from physics while leaving
    semantics untouched, which is the reference world used to prove that a
    shortcut only exists because of a planted bug.

    Everything a step reads is a table built here once per map, over the map
    padded by ``pad`` voxels of collision on every side: collision, platform
    cells and the carry of the platform under a voxel at each platform phase,
    climbable, adjacent-climbable, glitch and active-goal voxels, and
    bitmasks of the bug regions. ``pad`` covers the longest one-tick offset (a
    move, a rise or fall, a platform carry), so no index of a step leaves the
    volume and a step is whole-array lookups.
    """

    def __init__(self, vmap: VoxelMap, bugs_enabled: bool = True):
        vmap.validate()
        self.map = vmap
        self.dims = nx, ny, nz = vmap.dims

        self.phase_period = lcm(*(p.period for p in vmap.platforms))
        # Each platform's cells and travel at every phase of its own period.
        self._platforms = [
            (
                p.period,
                [p.cells_at(t) for t in range(p.period)],
                [p.delta_at(t) for t in range(p.period)],
            )
            for p in vmap.platforms
        ]
        self._max_push = max((p.amplitude for p in vmap.platforms), default=0) + 2

        pad = max([1] + [abs(c) for _, _, deltas in self._platforms for d in deltas for c in d])
        self._pad = pad
        self._shape = shape = (nx + 2 * pad, ny + 2 * pad, nz + 2 * pad)
        self.size = shape[0] * shape[1] * shape[2]
        self._sy = sy = shape[2]
        sx = shape[1] * sy
        self._move = np.array(
            [HORIZONTAL_DELTA[a][0] * sx + HORIZONTAL_DELTA[a][1] if a in HORIZONTAL_DELTA else 0
             for a in Action],
            dtype=np.intp,
        )

        block = np.isin(vmap.voxels, (SOLID, CLIMBABLE))
        climb = vmap.voxels == CLIMBABLE
        glitch = np.zeros_like(block)
        if bugs_enabled:
            for b in vmap.bugs:
                idx = tuple(np.array(sorted(b.voxels)).T)
                if b.kind == MISSING_COLLISION:
                    block[idx] = False
                elif b.kind == UNINTENDED_CLIMBABLE:
                    climb[idx] = True
                elif b.kind == INFINITE_JUMP_GLITCH:
                    glitch[idx] = True
        static = np.pad(block, pad, constant_values=True).reshape(-1)
        climb = np.pad(climb, pad)
        adjacent = np.zeros_like(climb)
        for dx, dz in _ADJACENT_8:
            adjacent |= np.roll(climb, (-dx, -dz), axis=(0, 2))
        self._climb = climb.reshape(-1)
        self._adjacent_climb = adjacent.reshape(-1)
        self._glitch = np.pad(glitch, pad).reshape(-1)

        self._goal = np.zeros(self.size, dtype=bool)
        self._goal[self._cells([v for g in vmap.goals if g.active for v in g.voxels])] = True
        # Bit i of a bug mask is bug region i. A climbable bug is climbed on,
        # never occupied: its mask marks the voxels beside it (any of their 8
        # neighbours), and a step sets its bit only while climbing.
        self._bugs_in = self._masks(
            [() if b.kind == UNINTENDED_CLIMBABLE else b.voxels for b in vmap.bugs]
        )
        self._bugs_beside = self._masks(
            [
                {(x - dx, y, z - dz) for x, y, z in b.voxels for dx, dz in _ADJACENT_8}
                if b.kind == UNINTENDED_CLIMBABLE else ()
                for b in vmap.bugs
            ]
        )

        # Per phase p, with p1 the next phase: the platform cells, collision,
        # and the flat travel of the first platform (in map order) under each
        # voxel at p; and, for an agent ending a tick from p in a voxel, the
        # voxel above free at p1, the voxel below free at p and at p1, and the
        # voxel below colliding at p1 (support).
        period, n = self.phase_period, self.size
        self._plat = np.zeros((period, n), dtype=bool)
        self._carry = np.zeros((period, n), dtype=np.int32)
        for phase in range(period):
            for p_period, cells, deltas in reversed(self._platforms):
                idx = self._cells(cells[phase % p_period])
                dx, dy, dz = deltas[phase % p_period]
                self._plat[phase, idx] = True
                self._carry[phase, idx + sy] = (dx * shape[1] + dy) * sy + dz
        self._collide = self._plat | static
        after = np.roll(self._collide, -1, axis=0)
        self._free_above = ~np.roll(after, -sy, axis=1)
        self._support = np.roll(after, sy, axis=1)
        self._free_below = ~np.roll(self._collide, sy, axis=1) & ~self._support

    def _cells(self, voxels) -> np.ndarray:
        """Flat padded indices of in-bounds voxels."""
        xyz = np.array([v for v in voxels if self.map.in_bounds(v)], dtype=np.intp).reshape(-1, 3)
        return np.ravel_multi_index(tuple((xyz + self._pad).T), self._shape)

    def _masks(self, voxel_sets) -> np.ndarray:
        if len(voxel_sets) > 64:
            raise MapInvariantError(
                f"physics holds at most 64 bug regions, map has {len(voxel_sets)}"
            )
        out = np.zeros(self.size, dtype=np.min_scalar_type((1 << len(voxel_sets)) - 1))
        for bit, voxels in enumerate(voxel_sets):
            out[self._cells(voxels)] |= out.dtype.type(1 << bit)
        return out

    def cell(self, pos: Vec3) -> int:
        """Flat padded index of an in-bounds voxel."""
        p, (_, ny, nz) = self._pad, self._shape
        return ((pos[0] + p) * ny + pos[1] + p) * nz + pos[2] + p

    def position(self, cell: int) -> Vec3:
        x, rest = divmod(cell, self._shape[1] * self._sy)
        y, z = divmod(rest, self._sy)
        p = self._pad
        return (x - p, y - p, z - p)

    def positions(self, cells: np.ndarray) -> np.ndarray:
        """Voxel coordinates of flat padded indices, in a trailing axis of 3."""
        return np.stack(np.unravel_index(cells, self._shape), axis=-1) - self._pad

    def colliding(self, pos: Vec3, tick: int) -> bool:
        """Physical collision, out-of-bounds counts as solid world boundary."""
        if not self.map.in_bounds(pos):
            return True
        return bool(self._collide[tick % self.phase_period, self.cell(pos)])

    def start(self, lengths: np.ndarray) -> Replay:
        """A Replay for scripts of ``lengths`` actions, every action Wait and
        every bug mask zero, with every agent's spawn state written as s_0."""
        n, width = len(lengths), int(lengths.max(initial=0))
        cell_type = np.int16 if self.size <= np.iinfo(np.int16).max else np.int32
        states, masks = (width + 1, n), (width, n)
        rec = Replay(
            self,
            np.full(masks, Action.WAIT, dtype=np.int8),
            lengths,
            np.empty(states, dtype=cell_type),
            np.empty(states, dtype=np.int8),
            *(np.empty(states, dtype=bool) for _ in range(4)),
            np.zeros(masks, dtype=self._bugs_in.dtype),
        )
        spawn = self.cell(self.map.spawn)
        rec.cell[0], rec.jump_ticks[0], rec.climbing[0], rec.double_jump[0] = spawn, 0, False, True
        rec.grounded[0] = self._collide[0, spawn - self._sy]
        rec.goal[0] = self._goal[spawn]
        return rec

    def step(self, rec: Replay, t: int, live=slice(None)) -> None:
        """Advance the agents in columns ``live`` of ``rec`` (all of them by
        default) by one tick, in place: read their states s_t and action ids
        a_t (0..9) from row t, write s_{t+1} and its goal flag into row
        t + 1, and the step's bug mask into row t of ``bugs``. Other columns
        and rows are left as they are.

        Phase order: platform resolve, horizontal intent, climb attach,
        vertical (jump / climb hold / gravity), platform carry, state
        recompute. Invalid moves are no-ops, never errors.

        Support (the decision whether gravity applies and whether the agent is
        carried) is evaluated against platform cells at the *start* of the
        tick; move targets are checked against the world after platforms have
        moved. This keeps riders attached to platforms travelling in any
        direction. An agent a platform moves into is pushed along the
        platform's travel; if no free voxel is found it is squeezed, and
        ``PhysicsError`` names the first such agent by its column.
        """
        phase = t % self.phase_period
        after = self._collide[(t + 1) % self.phase_period]
        # Row views first: one index per row is much cheaper than a 2-D index.
        start, actions, jump_ticks, grounded, climbing, double_jump = (
            a[t][live]
            for a in (rec.cell, rec.actions, rec.jump_ticks, rec.grounded, rec.climbing,
                      rec.double_jump)
        )
        start = start.astype(np.intp)  # int16 cells index the tables slower

        # 2: horizontal intent; 3: climb attach to a blocking climbable voxel
        moving = actions < _JUMP
        target = start + self._move[actions]
        blocked = moving & after[target]
        climbing = climbing | (blocked & self._climb[target])
        cell = np.where(moving ^ blocked, target, start)  # blocked only if moving

        # 4: vertical
        jump = actions == _JUMP
        fresh = jump & (grounded | climbing)
        spent = (jump ^ fresh) & double_jump  # fresh only if jumping
        jump_ticks = np.where(fresh | spent, np.int8(2), jump_ticks)
        double_jump = double_jump ^ spent
        rise = (jump_ticks > 0) & self._free_above[phase][cell]
        fall = self._free_below[phase][cell] & ~(rise | climbing)
        cell = np.where(rise, cell + self._sy, np.where(fall, cell - self._sy, cell))
        jump_ticks = jump_ticks - rise

        if self._platforms:
            # 5: platform carry
            target = cell + np.where(grounded, self._carry[phase][start], 0)
            cell = np.where(after[target], cell, target)
            # 5b: a platform may have moved into the agent; push along its travel
            for i in np.flatnonzero(self._plat[(t + 1) % self.phase_period][cell]):
                pushed = self._push(self.position(int(cell[i])), t)
                if pushed is None:
                    n = rec.cell.shape[1]
                    agent = int(np.arange(n)[live][i])
                    who = "agent" if n == 1 else f"agent {agent}"
                    pos = self.position(int(start[i]))
                    raise PhysicsError(
                        f"{who} at {pos} squeezed by platform at tick {t}", agent=agent
                    )
                cell[i] = pushed

        # 6: recompute climbing, grounded and double-jump availability
        climbing &= self._adjacent_climb[cell]
        grounded = self._support[phase][cell]
        double_jump |= grounded | self._glitch[cell]
        after_step = (cell, jump_ticks, grounded, climbing, double_jump, self._goal[cell])
        for a, value in zip(rec.states(), after_step):
            a[t + 1][live] = value
        rec.bugs[t][live] = self._bugs_in[cell] | self._bugs_beside[cell] * climbing

    def _push(self, pos: Vec3, tick: int) -> int | None:
        """The cell a platform entering ``pos`` at ``tick + 1`` pushes the
        agent to, or None if the agent is squeezed."""
        t1 = tick + 1
        for period, cells, deltas in self._platforms:
            if pos in cells[t1 % period]:
                d = deltas[tick % period]
                if d != (0, 0, 0):
                    for _ in range(self._max_push):
                        pos = (pos[0] + d[0], pos[1] + d[1], pos[2] + d[2])
                        if not self.colliding(pos, t1):
                            return self.cell(pos)
                return None
        return None

    def bug_hits(self, mask: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """(regions, kinds) of a bug mask: its set bits, in map order."""
        regions = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        return regions, tuple(self.map.bugs[i].kind for i in regions)

    def replay(self, scripts, lengths: Sequence[int] | None = None) -> Replay:
        """Play every script from spawn in one lockstep batch.

        ``scripts`` is a sequence of action-id sequences or, with ``lengths``,
        one (T, N) integer matrix whose column i holds script i's first
        ``lengths[i]`` actions (the rows below them are not played). An id
        that is not an int in 0..9 (200, -1, 2.7, True) is a ValueError,
        checked before any cast. Scripts may differ in length. An agent past
        the end of its script is frozen: it is not stepped again, so it can
        never be squeezed, and each later row repeats its last state.
        """
        bad = ValueError(f"action ids must be ints in 0..{len(Action) - 1}")
        if lengths is None:
            ids = [a for script in scripts for a in script]
            if not all(isinstance(a, (int, np.integer)) and type(a) is not bool for a in ids):
                raise bad
            if ids and not 0 <= min(ids) <= max(ids) < len(Action):
                raise bad
            lengths = [len(s) for s in scripts]
            matrix = np.full((max(lengths, default=0), len(scripts)), Action.WAIT, np.int8)
            for i, script in enumerate(scripts):
                matrix[: len(script), i] = script
        else:
            matrix = np.asarray(scripts)
            if matrix.dtype.kind not in "iu":
                raise bad
            if matrix.size and not 0 <= matrix.min() <= matrix.max() < len(Action):
                raise bad
            if matrix.shape[1:] != (len(lengths),) or len(matrix) < max(lengths, default=0):
                raise ValueError(f"the action matrix must be (T, {len(lengths)}), T >= each length")
        lengths = np.asarray(lengths, dtype=np.intp)
        rec = self.start(lengths)
        played = np.arange(len(rec.actions))[:, None] < lengths
        rec.actions[:] = np.where(played, matrix[: len(rec.actions)], Action.WAIT)
        shortest = int(lengths.min()) if len(lengths) else 0
        for t in range(shortest):
            self.step(rec, t)
        for t in range(shortest, len(rec.actions)):
            for a in rec.states():
                a[t + 1] = a[t]
            self.step(rec, t, np.flatnonzero(lengths > t))
        return rec


@dataclass(slots=True)
class Replay:
    """States s_0..s_T of a batch of scripts (or rollout episodes) stepped
    in lockstep, time-major: row t holds every script's s_t (or action a_t).
    Rows past a script's end repeat its last state, with Wait actions and
    zero bug masks."""

    physics: Physics
    actions: np.ndarray  # (T, N) int8
    lengths: np.ndarray  # (N,) actions in each script
    cell: np.ndarray  # (T+1, N) flat padded index
    jump_ticks: np.ndarray  # (T+1, N) int8
    grounded: np.ndarray  # (T+1, N) bool
    climbing: np.ndarray  # (T+1, N) bool
    double_jump: np.ndarray  # (T+1, N) bool
    goal: np.ndarray  # (T+1, N) bool: the state is in an active goal
    bugs: np.ndarray  # (T, N) bit i: s_{t+1} is inside bug region i, or climbs on it

    def states(self) -> tuple[np.ndarray, ...]:
        """The arrays with a row per state: the five state arrays and ``goal``."""
        return self.cell, self.jump_ticks, self.grounded, self.climbing, self.double_jump, self.goal

    def rows(self, t, n=slice(None)) -> tuple[np.ndarray, ...]:
        """The encoder's view of the states s_t of scripts ``n`` (``t`` and
        ``n`` index as a pair): (positions, positions one step earlier,
        grounded, climbing, double_jump). s_0 is its own earlier state."""
        positions = self.physics.positions
        return (
            positions(self.cell[t, n]),
            positions(self.cell[np.maximum(t - 1, 0), n]),
            self.grounded[t, n],
            self.climbing[t, n],
            self.double_jump[t, n],
        )

    def first_goal(self) -> np.ndarray:
        """Each script's first state index in a goal, -1 where it has none."""
        return np.where(self.goal.any(axis=0), self.goal.argmax(axis=0), -1)

    def entered(self) -> np.ndarray:
        """Each script's bug regions entered or climbed on, as one bit mask."""
        return np.bitwise_or.reduce(self.bugs, axis=0)

    def state_table(self, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Number the distinct states s_0..s_{ends[i]} of every script (none
        where ``ends[i]`` is -1) in first-seen order, script by script.

        Returns (t, n) of each distinct state's first occurrence, by number,
        and the number of every included state, flat in the same order.
        States are compared as whole ``AgentState``s: the key holds the voxel,
        the voxel one step earlier (so the last displacement), the jump ticks
        and the three flags.
        """
        n, t = np.nonzero(np.arange(len(self.cell)) <= ends[:, None])
        before = np.maximum(t - 1, 0)
        flags = (
            self.jump_ticks[t, n] * 8
            + self.grounded[t, n] + 2 * self.climbing[t, n] + 4 * self.double_jump[t, n]
        )
        size = self.physics.size
        keys = (self.cell[t, n].astype(np.int64) * size + self.cell[before, n]) * 24 + flags
        first, ids = first_seen(keys)
        return t[first], n[first], ids

    def trajectory(self, i: int) -> Trajectory:
        """Script ``i`` as a :class:`Trajectory`."""
        n = int(self.lengths[i])
        pos, prev, *flags = (a.tolist() for a in self.rows(np.arange(n + 1), i))
        states = [
            AgentState(tuple(p), jt, *f, (p[0] - q[0], p[1] - q[1], p[2] - q[2]))
            for p, q, jt, *f in zip(pos, prev, self.jump_ticks[: n + 1, i].tolist(), *flags)
        ]
        goal_flags = self.goal[: n + 1, i].tolist()
        regions, kinds = self.physics.bug_hits(int(self.entered()[i]))
        return Trajectory(
            states,
            self.actions[:n, i].tolist(),
            [GOAL_REWARD if g else 0.0 for g in goal_flags[1:]],
            goal_flags,
            set(regions),
            set(kinds),
        )


@dataclass(slots=True)
class Trajectory:
    """One episode: states s_0..s_T, actions a_0..a_{T-1} and outcome flags."""

    states: list[AgentState]
    actions: list[int]
    r_e: list[float]
    goal_flags: list[bool]  # per state, length len(states)
    bug_regions_entered: set[int]  # entered, or for a climbable bug climbed on
    bug_kinds_entered: set[str]

    @property
    def positions(self) -> list[Vec3]:
        return [s.pos for s in self.states]

    @property
    def first_goal_state_index(self) -> int | None:
        for i, flag in enumerate(self.goal_flags):
            if flag:
                return i
        return None

    @property
    def reached_goal(self) -> bool:
        return self.first_goal_state_index is not None


def play_script(vmap: VoxelMap, actions: Sequence[Action]) -> Trajectory:
    """Replay a fixed action list from spawn; deterministic bit-for-bit."""
    return Physics(vmap).replay([actions]).trajectory(0)
