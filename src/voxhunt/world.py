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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from math import gcd
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
    """Raised when the physics update cannot produce a legal agent position."""


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

_ADJACENT_8 = tuple((dx, dz) for dx in (-1, 0, 1) for dz in (-1, 0, 1) if (dx, dz) != (0, 0))
_NO_BUGS: tuple[tuple[int, ...], tuple[str, ...]] = ((), ())


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


@dataclass(slots=True)
class StepResult:
    state: AgentState
    r_e: float
    done: bool
    goal_ids: tuple[int, ...]
    bug_regions: tuple[int, ...]
    bug_kinds: tuple[str, ...]


class Physics:
    """Stateless tick-update engine for one map.

    ``bugs_enabled=False`` strips every bug region from physics while leaving
    semantics untouched, which is the reference world used to prove that a
    shortcut only exists because of a planted bug.

    Everything a step reads is a table built here once per map, so a step
    does lookups, not scans.
    """

    def __init__(self, vmap: VoxelMap, bugs_enabled: bool = True):
        vmap.validate()
        self.map = vmap
        self.bugs_enabled = bugs_enabled
        self.dims = vmap.dims

        block = np.isin(vmap.voxels, (SOLID, CLIMBABLE))
        climb = vmap.voxels == CLIMBABLE
        glitch = np.zeros_like(block)
        if bugs_enabled:
            for b in vmap.bugs:
                idx = tuple(np.array(sorted(b.voxels)).T) if b.voxels else None
                if b.kind == MISSING_COLLISION:
                    block[idx] = False
                elif b.kind == UNINTENDED_CLIMBABLE:
                    climb[idx] = True
                elif b.kind == INFINITE_JUMP_GLITCH:
                    glitch[idx] = True
        # Flat byte views in C order: voxel (x, y, z) is byte (x*ny + y)*nz + z.
        self._block = block.tobytes()
        self._climb = climb.tobytes()
        self._glitch = glitch.tobytes()

        # Voxel -> ids of the active goals holding it, in map order.
        self._goals_at: dict[Vec3, tuple[int, ...]] = {}
        for g in vmap.goals:
            if g.active:
                for v in g.voxels:
                    self._goals_at[v] = self._goals_at.get(v, ()) + (g.id,)
        # Voxel -> (regions, kinds) of the bugs an agent there enters, and of
        # the climbable bugs it uses while attached (any of its 8 neighbours),
        # each in map order.
        self._bugs_in: dict[Vec3, tuple[tuple[int, ...], tuple[str, ...]]] = {}
        self._bugs_beside: dict[Vec3, tuple[tuple[int, ...], tuple[str, ...]]] = {}
        for i, b in enumerate(vmap.bugs):
            if b.kind == UNINTENDED_CLIMBABLE:
                table = self._bugs_beside
                cells = {(x - dx, y, z - dz) for x, y, z in b.voxels for dx, dz in _ADJACENT_8}
            else:
                table, cells = self._bugs_in, b.voxels
            for c in cells:
                regions, kinds = table.get(c, _NO_BUGS)
                table[c] = (regions + (i,), kinds + (b.kind,))

        self.phase_period = 1
        for p in vmap.platforms:
            self.phase_period = self.phase_period * p.period // gcd(self.phase_period, p.period)
        # Each platform's cells and travel at every phase of its own period,
        # and the union of all platform cells at every phase of the map.
        self._platforms = [
            (
                p.period,
                [p.cells_at(t) for t in range(p.period)],
                [p.delta_at(t) for t in range(p.period)],
            )
            for p in vmap.platforms
        ]
        self._plat_union = [
            frozenset().union(*[cells[t % period] for period, cells, _ in self._platforms])
            for t in range(self.phase_period)
        ]
        self._max_push = max((p.amplitude for p in vmap.platforms), default=0) + 2

    def platform_cells(self, tick: int) -> frozenset[Vec3]:
        return self._plat_union[tick % self.phase_period]

    def colliding(self, pos: Vec3, tick: int) -> bool:
        """Physical collision, out-of-bounds counts as solid world boundary."""
        x, y, z = pos
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            return True
        if self._block[(x * ny + y) * nz + z]:
            return True
        return pos in self._plat_union[tick % self.phase_period]

    def passable(self, pos: Vec3, tick: int) -> bool:
        return not self.colliding(pos, tick)

    def climbable(self, pos: Vec3) -> bool:
        x, y, z = pos
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            return False
        return self._climb[(x * ny + y) * nz + z] == 1

    def _adjacent_climbable(self, pos: Vec3) -> bool:
        x, y, z = pos
        for dx, dz in _ADJACENT_8:
            if self.climbable((x + dx, y, z + dz)):
                return True
        return False

    def initial_state(self) -> AgentState:
        spawn = self.map.spawn
        below = (spawn[0], spawn[1] - 1, spawn[2])
        return AgentState(
            pos=spawn,
            jump_ticks=0,
            grounded=self.colliding(below, 0),
            climbing=False,
            double_jump_available=True,
            last_disp=(0, 0, 0),
        )

    def step(self, state: AgentState, action: Action, tick: int) -> tuple[AgentState, tuple[int, ...], tuple[int, ...], tuple[str, ...], float]:
        """Advance one tick. Returns (state', goal_ids, bug_regions, bug_kinds, r_e).

        Phase order: platform resolve, horizontal intent, climb attach,
        vertical (jump / climb hold / gravity), platform carry, state
        recompute. Invalid moves are no-ops, never errors.

        Support (the decision whether gravity applies and whether the agent is
        carried) is evaluated against platform cells at the *start* of the
        tick; move targets are checked against the world after platforms have
        moved. This keeps riders attached to platforms travelling in any
        direction.
        """
        x0, y0, z0 = pos = state.pos
        jt = state.jump_ticks
        climbing = state.climbing
        dj = state.double_jump_available
        t1 = tick + 1
        platforms = self._platforms

        carry: Vec3 | None = None
        if state.grounded and platforms:
            below0 = (x0, y0 - 1, z0)
            for period, cells, deltas in platforms:
                if below0 in cells[tick % period]:
                    d = deltas[tick % period]
                    if d != (0, 0, 0):
                        carry = d
                    break

        # 2: horizontal intent
        blocked: Vec3 | None = None
        delta = HORIZONTAL_DELTA.get(action)
        if delta is not None:
            target = (pos[0] + delta[0], pos[1], pos[2] + delta[1])
            if self.colliding(target, t1):
                blocked = target
            else:
                pos = target

        # 3: climb attach
        if blocked is not None and self.climbable(blocked):
            climbing = True

        # 4: vertical
        if action == Action.JUMP:
            if state.grounded or climbing:
                jt = 2
            elif dj:
                jt = 2
                dj = False
        above = (pos[0], pos[1] + 1, pos[2])
        if jt > 0 and not self.colliding(above, t1):
            pos = above
            jt -= 1
        elif climbing:
            pass  # hold altitude while attached
        else:
            below = (pos[0], pos[1] - 1, pos[2])
            if not self.colliding(below, tick) and not self.colliding(below, t1):
                pos = below

        # 5: platform carry
        if carry is not None:
            target = (pos[0] + carry[0], pos[1] + carry[1], pos[2] + carry[2])
            if not self.colliding(target, t1):
                pos = target

        # 5b: a platform may have moved into the agent; push along its travel
        if platforms and pos in self._plat_union[t1 % self.phase_period]:
            pushed = False
            for period, cells, deltas in platforms:
                if pos in cells[t1 % period]:
                    d = deltas[tick % period]
                    if d == (0, 0, 0):
                        break
                    for _ in range(self._max_push):
                        pos = (pos[0] + d[0], pos[1] + d[1], pos[2] + d[2])
                        if not self.colliding(pos, t1):
                            pushed = True
                            break
                    break
            if not pushed:
                raise PhysicsError(
                    f"agent at {state.pos} squeezed by platform at tick {tick}"
                )

        if climbing and not self._adjacent_climbable(pos):
            climbing = False

        # 6: recompute grounded and double-jump availability
        x, y, z = pos
        grounded = self.colliding((x, y - 1, z), t1)
        if grounded:
            dj = True
        _, ny, nz = self.dims
        if self._glitch[(x * ny + y) * nz + z]:
            dj = True

        new_state = AgentState(
            pos=pos,
            jump_ticks=jt,
            grounded=grounded,
            climbing=climbing,
            double_jump_available=dj,
            last_disp=(x - x0, y - y0, z - z0),
        )

        goal_ids = self._goals_at.get(pos, ())
        regions, kinds = self._bugs_in.get(pos, _NO_BUGS)
        if climbing:
            # A climbable bug is "used", never occupied: count adjacency while attached.
            used = self._bugs_beside.get(pos)
            if used is not None:
                regions, kinds = regions + used[0], kinds + used[1]
        return new_state, goal_ids, regions, kinds, GOAL_REWARD if goal_ids else 0.0

    def state_in_goal(self, pos: Vec3) -> bool:
        return pos in self._goals_at


class Env:
    """Episode wrapper around :class:`Physics` with a fixed step budget."""

    def __init__(
        self,
        vmap: VoxelMap,
        episode_length: int = 128,
        bugs_enabled: bool = True,
        physics: Physics | None = None,
    ):
        """``physics``, when given, is an engine for ``vmap`` to share instead
        of building one; ``bugs_enabled`` then goes unread."""
        if episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        self.physics = physics or Physics(vmap, bugs_enabled=bugs_enabled)
        self.map = vmap
        self.episode_length = episode_length
        self._tick = 0
        self.state = self.physics.initial_state()

    @property
    def tick(self) -> int:
        return self._tick

    def reset(self, seed: int = 0) -> AgentState:
        # Physics is fully deterministic; the seed is accepted for interface
        # symmetry with stochastic environments and ignored.
        del seed
        self._tick = 0
        self.state = self.physics.initial_state()
        return self.state

    def step(self, action: Action) -> StepResult:
        new_state, goal_ids, regions, kinds, r_e = self.physics.step(
            self.state, action, self._tick
        )
        self._tick += 1
        self.state = new_state
        return StepResult(
            state=new_state,
            r_e=r_e,
            done=self._tick >= self.episode_length,
            goal_ids=goal_ids,
            bug_regions=regions,
            bug_kinds=kinds,
        )


@dataclass(slots=True)
class Trajectory:
    """One episode: states s_0..s_T, actions a_0..a_{T-1} and outcome flags."""

    states: list[AgentState]
    actions: list[Action]
    r_e: list[float]
    goal_flags: list[bool]  # per state, length len(states)
    bug_region_steps: list[tuple[int, ...]]  # per action step
    bug_kind_steps: list[tuple[str, ...]]

    @classmethod
    def start(cls, env: Env) -> Trajectory:
        """An empty trajectory at ``env``'s current state."""
        return cls([env.state], [], [], [env.physics.state_in_goal(env.state.pos)], [], [])

    @classmethod
    def replay(cls, env: Env, actions: Sequence[Action]) -> Trajectory:
        """Reset ``env`` and record ``actions`` played from spawn."""
        env.reset()
        traj = cls.start(env)
        for action in actions:
            traj.step(env, action)
        return traj

    def step(self, env: Env, action: Action) -> StepResult:
        """Step ``env`` by ``action`` and record the transition."""
        res = env.step(action)
        self.states.append(res.state)
        self.actions.append(action)
        self.r_e.append(res.r_e)
        self.goal_flags.append(env.physics.state_in_goal(res.state.pos))
        self.bug_region_steps.append(res.bug_regions)
        self.bug_kind_steps.append(res.bug_kinds)
        return res

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

    @property
    def bug_regions_entered(self) -> set[int]:
        out: set[int] = set()
        for step in self.bug_region_steps:
            out.update(step)
        return out

    @property
    def bug_kinds_entered(self) -> set[str]:
        out: set[str] = set()
        for step in self.bug_kind_steps:
            out.update(step)
        return out


def play_script(
    vmap: VoxelMap,
    actions: Sequence[Action],
    episode_length: int | None = None,
    bugs_enabled: bool = True,
) -> Trajectory:
    """Replay a fixed action list from spawn; deterministic bit-for-bit."""
    if episode_length is not None and len(actions) > episode_length:
        raise ValueError(
            f"script has {len(actions)} actions, episode allows {episode_length}"
        )
    env = Env(vmap, episode_length=max(len(actions), 1), bugs_enabled=bugs_enabled)
    return Trajectory.replay(env, actions)
