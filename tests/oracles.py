"""Independent oracles used by the test suite.

Everything here is deliberately written straight-line / brute-force and stays
independent of the library code paths it checks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voxhunt import nn
from voxhunt.encode import agent_info_vector
from voxhunt.imitation import one_hot_actions
from voxhunt.policy import act
from voxhunt.world import (
    AGENT_CODE,
    CLIMBABLE,
    GOAL_REWARD,
    HORIZONTAL_DELTA,
    MISSING_COLLISION,
    SOLID,
    UNINTENDED_CLIMBABLE,
    Action,
    AgentState,
    Physics,
    PhysicsError,
)


def fd_param_gradients(loss_fn, arrays, probes_per_array=5, h=1e-6, rng=None):
    """Central finite differences of a scalar loss at sampled tensor entries.

    Returns a list of (name, flat_index, fd_value). `loss_fn` takes no
    arguments and reads the arrays in place.
    """
    rng = rng or np.random.default_rng(0)
    out = []
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        n = min(probes_per_array, flat.size)
        idx = rng.choice(flat.size, size=n, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            out.append((name, int(i), (lp - lm) / (2.0 * h)))
    return out


def assert_grads_close(analytic, fd_list, rtol=1e-4, atol=1e-7):
    for name, i, fd in fd_list:
        got = analytic[name].reshape(-1)[i]
        err = abs(got - fd) / max(abs(fd), abs(got), atol)
        assert err < rtol or abs(got - fd) < atol, (
            f"{name}[{i}]: analytic {got} vs fd {fd} (rel err {err:.3g})"
        )


def positional_embedding_ref(pos, d, base=10000.0):
    """Element-by-element scalar evaluation of the sin/cos code."""
    out = np.zeros(d)
    for i in range(d // 2):
        angle = pos / base ** (2 * i / d)
        out[2 * i] = math.sin(angle)
        out[2 * i + 1] = math.cos(angle)
    return out


def gae_ref(rewards, values, gamma, lam):
    """Advantage by direct truncated double summation."""
    T = len(rewards)
    deltas = [rewards[t] + gamma * values[t + 1] - values[t] for t in range(T)]
    adv = []
    for t in range(T):
        total = 0.0
        for k in range(T - t):
            total += (gamma * lam) ** k * deltas[t + k]
        adv.append(total)
    return np.array(adv)


def softmax_ref(logits):
    exps = [math.exp(v - max(logits)) for v in logits]
    s = sum(exps)
    return np.array([e / s for e in exps])


def explore_transitions(physics, max_keys=2_000_000):
    """Exhaustive BFS over the discrete dynamics of a ``ScanPhysics`` from
    the spawn state.

    State key: (position, jump ticks, double-jump flag, climbing flag,
    platform phase). Yields (state, phase, action, outcome) for every action
    from the first state reached under each key, where outcome is the tuple
    ``physics.step`` returns or the ``PhysicsError`` it raised; a squeeze is
    not expanded further.
    """
    period = physics.phase_period
    start = physics.initial_state()

    def key(s, ph):
        return (s.pos, s.jump_ticks, s.double_jump_available, s.climbing, ph)

    seen = {key(start, 0)}
    queue = deque([(start, 0)])
    while queue:
        s, ph = queue.popleft()
        for a in Action:
            try:
                out = physics.step(s, a, ph)
            except PhysicsError as e:
                yield s, ph, a, e
                continue
            yield s, ph, a, out
            nph = (ph + 1) % period
            k = key(out[0], nph)
            if k not in seen:
                if len(seen) >= max_keys:
                    raise RuntimeError("state space larger than expected")
                seen.add(k)
                queue.append((out[0], nph))


def explore_states(physics, max_keys=2_000_000):
    """Every state ``explore_transitions`` reaches, as (positions, climbing
    positions, key count); a squeeze raises its ``PhysicsError``."""
    positions, climbing_at, keys = set(), set(), 0
    for s, _ph, a, out in explore_transitions(physics, max_keys):
        if isinstance(out, PhysicsError):
            raise out
        if a == 0:  # each reached state is expanded once, action 0 first
            keys += 1
            positions.add(s.pos)
            if s.climbing:
                climbing_at.add(s.pos)
    return positions, climbing_at, keys


ADJACENT_8 = [(dx, dz) for dx in (-1, 0, 1) for dz in (-1, 0, 1) if dx or dz]


class ScanPhysics:
    """The simulator step for one agent written as scans: platform cells and
    travel from ``MovingPlatform.cells_at``/``delta_at`` inside the step,
    numpy-indexed voxel masks, and per-step loops over goals and bug regions.
    The oracle for ``Physics.step``, which steps a batch of agents from
    tables built once per map.

    ``carried`` and ``pushed`` count the steps that took the platform carry
    and the platform push branches.
    """

    def __init__(self, vmap, bugs_enabled=True):
        self.map = vmap
        self.dims = vmap.dims
        self.block = np.isin(vmap.voxels, (SOLID, CLIMBABLE))
        self.climb = vmap.voxels == CLIMBABLE
        self.glitch = np.zeros_like(self.block)
        for b in vmap.bugs if bugs_enabled else ():
            for v in b.voxels:
                if b.kind == MISSING_COLLISION:
                    self.block[v] = False
                elif b.kind == UNINTENDED_CLIMBABLE:
                    self.climb[v] = True
                else:
                    self.glitch[v] = True
        self.phase_period = math.lcm(*[p.period for p in vmap.platforms])
        self.max_push = max((p.amplitude for p in vmap.platforms), default=0) + 2
        self.union_at = {}  # phase -> all platform cells, filled on first use
        self.carried = self.pushed = 0

    def platform_cells(self, tick):
        phase = tick % self.phase_period
        if phase not in self.union_at:
            cells = [p.cells_at(phase) for p in self.map.platforms]
            self.union_at[phase] = frozenset().union(*cells)
        return self.union_at[phase]

    def colliding(self, pos, tick):
        if not self.map.in_bounds(pos):
            return True
        return bool(self.block[pos]) or pos in self.platform_cells(tick)

    def climbable(self, pos):
        return self.map.in_bounds(pos) and bool(self.climb[pos])

    def initial_state(self):
        x, y, z = self.map.spawn
        return AgentState(self.map.spawn, grounded=self.colliding((x, y - 1, z), 0))

    def step(self, state, action, tick):
        x0, y0, z0 = pos = state.pos
        jt, climbing, dj = state.jump_ticks, state.climbing, state.double_jump_available
        t1 = tick + 1

        carry = None
        if state.grounded:
            for p in self.map.platforms:
                if (x0, y0 - 1, z0) in p.cells_at(tick):
                    if p.delta_at(tick) != (0, 0, 0):
                        carry = p.delta_at(tick)
                    break

        blocked = None
        delta = HORIZONTAL_DELTA.get(action)
        if delta is not None:
            target = (pos[0] + delta[0], pos[1], pos[2] + delta[1])
            if self.colliding(target, t1):
                blocked = target
            else:
                pos = target
        if blocked is not None and self.climbable(blocked):
            climbing = True

        if action == Action.JUMP:
            if state.grounded or climbing:
                jt = 2
            elif dj:
                jt, dj = 2, False
        above = (pos[0], pos[1] + 1, pos[2])
        below = (pos[0], pos[1] - 1, pos[2])
        if jt > 0 and not self.colliding(above, t1):
            pos, jt = above, jt - 1
        elif not climbing and not self.colliding(below, tick) and not self.colliding(below, t1):
            pos = below

        if carry is not None:
            self.carried += 1
            target = tuple(a + b for a, b in zip(pos, carry))
            if not self.colliding(target, t1):
                pos = target

        if pos in self.platform_cells(t1):
            self.pushed += 1
            pushed = False
            for p in self.map.platforms:
                if pos in p.cells_at(t1):
                    d = p.delta_at(tick)
                    for _ in range(self.max_push if d != (0, 0, 0) else 0):
                        pos = tuple(a + b for a, b in zip(pos, d))
                        if not self.colliding(pos, t1):
                            pushed = True
                            break
                    break
            if not pushed:
                raise PhysicsError(f"agent at {state.pos} squeezed by platform at tick {tick}")

        x, y, z = pos
        if climbing and not any(self.climbable((x + dx, y, z + dz)) for dx, dz in ADJACENT_8):
            climbing = False
        grounded = self.colliding((x, y - 1, z), t1)
        dj = dj or grounded or bool(self.glitch[pos])
        new_state = AgentState(pos, jt, grounded, climbing, dj, (x - x0, y - y0, z - z0))

        goal_ids = tuple(g.id for g in self.map.goals if g.active and pos in g.voxels)
        # in map order: bugs entered, and climbable bugs climbed on
        beside = {(x + dx, y, z + dz) for dx, dz in ADJACENT_8} if climbing else set()
        hits = [
            i for i, b in enumerate(self.map.bugs)
            if (beside & b.voxels if b.kind == UNINTENDED_CLIMBABLE else pos in b.voxels)
        ]
        regions, kinds = tuple(hits), tuple(self.map.bugs[i].kind for i in hits)
        r_e = GOAL_REWARD if goal_ids else 0.0
        return new_state, goal_ids, regions, kinds, r_e


def event_scripts(vmap):
    """A shortest script into each goal and each bug region of ``vmap``, by a
    breadth-first search over a ``ScanPhysics`` keyed as in
    ``explore_transitions``: {("goal", id) or ("bug", region): script}, where
    the script's last step enters the goal or the region (or, for a climbable
    bug, climbs on it)."""
    ref = ScanPhysics(vmap)
    start = ref.initial_state()

    def key(s, ph):
        return (s.pos, s.jump_ticks, s.double_jump_available, s.climbing, ph)

    want = len(vmap.bugs) + len(vmap.goals)
    seen, queue, found = {key(start, 0)}, deque([(start, 0, [])]), {}
    while queue and len(found) < want:
        s, ph, script = queue.popleft()
        for a in Action:
            try:
                out = ref.step(s, a, ph)
            except PhysicsError:
                continue
            for event in [("goal", g) for g in out[1]] + [("bug", r) for r in out[2]]:
                found.setdefault(event, script + [int(a)])
            nph = (ph + 1) % ref.phase_period
            if key(out[0], nph) not in seen:
                seen.add(key(out[0], nph))
                queue.append((out[0], nph, script + [int(a)]))
    return found


def step_states(physics, states, actions, tick):
    """Step one agent per ``AgentState`` of ``states`` by its action at
    ``tick`` through ``Physics.step``: write the states as row ``tick`` of a
    ``Physics.start`` Replay, set the actions and step. Returns the Replay."""
    rec = physics.start(np.full(len(states), tick + 1))
    rec.cell[tick] = [physics.cell(s.pos) for s in states]
    rec.jump_ticks[tick] = [s.jump_ticks for s in states]
    rec.grounded[tick] = [s.grounded for s in states]
    rec.climbing[tick] = [s.climbing for s in states]
    rec.double_jump[tick] = [s.double_jump_available for s in states]
    rec.actions[tick] = actions
    physics.step(rec, tick)
    return rec


def outcomes(physics, before, rec, tick):
    """Each agent's (state', goal_ids, bug_regions, bug_kinds, r_e) after
    ``step_states`` stepped it from its state ``before``: the tuple
    ``ScanPhysics.step`` returns, read from row ``tick + 1`` of the Replay
    and the step's bug mask. Goal ids are those of the active goals whose
    voxels hold the agent, where the Replay flags the state as in a goal."""
    out, t = [], tick + 1
    for i, s in enumerate(before):
        x, y, z = pos = physics.position(int(rec.cell[t, i]))
        x0, y0, z0 = s.pos
        state = AgentState(
            pos, int(rec.jump_ticks[t, i]), bool(rec.grounded[t, i]), bool(rec.climbing[t, i]),
            bool(rec.double_jump[t, i]), (x - x0, y - y0, z - z0),
        )
        in_goal = bool(rec.goal[t, i])
        goal_ids = tuple(
            g.id for g in physics.map.goals if in_goal and g.active and pos in g.voxels
        )
        regions, kinds = physics.bug_hits(int(rec.bugs[tick, i]))
        out.append((state, goal_ids, regions, kinds, GOAL_REWARD if in_goal else 0.0))
    return out


@dataclass
class StepResult:
    state: AgentState
    r_e: float
    done: bool
    goal_ids: tuple
    bug_regions: tuple
    bug_kinds: tuple


class Env:
    """One agent stepped through ``Physics`` as a batch of one, with a fixed
    step budget."""

    def __init__(self, vmap, episode_length=128, bugs_enabled=True):
        if episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        self.physics = Physics(vmap, bugs_enabled=bugs_enabled)
        self.map = vmap
        self.episode_length = episode_length
        self.reset()

    def reset(self, seed=0):
        del seed  # physics is deterministic; the seed is accepted and ignored
        self.tick = 0
        rec = self.physics.start(np.zeros(1, dtype=np.intp))
        self.state = AgentState(
            self.map.spawn, int(rec.jump_ticks[0, 0]), bool(rec.grounded[0, 0]),
            bool(rec.climbing[0, 0]), bool(rec.double_jump[0, 0]),
        )
        return self.state

    def step(self, action):
        rec = step_states(self.physics, [self.state], [Action(action)], self.tick)
        [(state, goal_ids, regions, kinds, r_e)] = outcomes(
            self.physics, [self.state], rec, self.tick
        )
        self.tick += 1
        self.state = state
        return StepResult(state, r_e, self.tick >= self.episode_length, goal_ids, regions, kinds)


def state_curiosity(states, rnd, encoder):
    """Raw curiosity of each state, encoded one state at a time."""
    inputs = {
        "pos": np.stack([encoder.position_code(s.pos) for s in states]),
        "info": np.stack([agent_info_vector(s) for s in states]),
    }
    return rnd.raw_reward(inputs)


def score_trajectory(trajectory, rnd, encoder):
    """Average raw curiosity from the start to the first goal entry, one
    trajectory at a time: (score, T), or (None, None) without a goal."""
    T = trajectory.first_goal_state_index
    if T is None:
        return None, None
    rc = state_curiosity(trajectory.states[: T + 1], rnd, encoder)
    return float(rc.sum() / max(T, 1)), T


def agent_info_ref(state):
    """Flags, last displacement and its unit direction of one state, as
    scalar arithmetic."""
    dx, dy, dz = state.last_disp
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    unit = [d / norm if norm > 0 else 0.0 for d in state.last_disp]
    flags = (state.grounded, state.climbing, state.double_jump_available)
    return np.array([1.0 if f else 0.0 for f in flags] + [float(dx), float(dy), float(dz)] + unit)


def local_occupancy(vmap, state, L, tick=0):
    """Semantic L^3 cube centered on the agent, cut from the map per call;
    out-of-bounds encodes as solid. The oracle for
    ``ObservationEncoder.occupancy``, which reads a pre-padded copy instead.

    Moving platforms render as solid at their position for `tick`.
    """
    if L < 1 or L % 2 == 0:
        raise ValueError(f"L must be odd and positive, got {L}")
    r = L // 2
    out = np.full((L, L, L), SOLID, dtype=np.uint8)
    nx, ny, nz = vmap.dims
    x, y, z = state.pos
    x0, x1 = max(0, x - r), min(nx, x + r + 1)
    y0, y1 = max(0, y - r), min(ny, y + r + 1)
    z0, z1 = max(0, z - r), min(nz, z + r + 1)
    out[
        x0 - (x - r) : x1 - (x - r),
        y0 - (y - r) : y1 - (y - r),
        z0 - (z - r) : z1 - (z - r),
    ] = vmap.voxels[x0:x1, y0:y1, z0:z1]
    for p in vmap.platforms:
        for (px, py, pz) in p.cells_at(tick):
            if x0 <= px < x1 and y0 <= py < y1 and z0 <= pz < z1:
                out[px - (x - r), py - (y - r), pz - (z - r)] = SOLID
    out[r, r, r] = AGENT_CODE
    return out


def raycast_observation(vmap, state, tick=0):
    """24 lattice rays (8 compass x 3 elevations), each (distance, hit code),
    marched voxel by voxel from one state. The oracle for
    ``ObservationEncoder.rays``, which gathers every step of every ray at once.

    Distances count whole-voxel marching steps over the map diagonal. Leaving
    the map is a SOLID hit; a ray with no hit within int(diagonal) steps
    reports (1.0, 0). Moving platforms are solid at their position for `tick`.
    """
    nx, ny, nz = vmap.dims
    diagonal = math.sqrt(nx * nx + ny * ny + nz * nz)
    plat_cells = set()
    for p in vmap.platforms:
        plat_cells.update(p.cells_at(tick))
    cx, cy, cz = (state.pos[0] + 0.5, state.pos[1] + 0.5, state.pos[2] + 0.5)
    compass = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))
    out = []
    for elevation in (-30.0, 0.0, 30.0):
        e = math.radians(elevation)
        for hx, hz in compass:
            hn = math.sqrt(hx * hx + hz * hz)
            dx, dy, dz = math.cos(e) * hx / hn, math.sin(e), math.cos(e) * hz / hn
            dist, code = 1.0, 0
            for k in range(1, int(diagonal) + 1):
                vx = math.floor(cx + k * dx)
                vy = math.floor(cy + k * dy)
                vz = math.floor(cz + k * dz)
                if not (0 <= vx < nx and 0 <= vy < ny and 0 <= vz < nz):
                    dist, code = min(k / diagonal, 1.0), SOLID
                    break
                cell_code = int(vmap.voxels[vx, vy, vz])
                if cell_code == 0 and (vx, vy, vz) in plat_cells:
                    cell_code = SOLID
                if cell_code != 0:
                    dist, code = min(k / diagonal, 1.0), cell_code
                    break
            out += [dist, float(code)]
    return np.array(out)


def gradient_penalty(disc, expert_occ, expert_act, coef=5.0):
    """coef * mean squared norm of D's input gradients on expert samples.

    Gradients are taken with respect to the continuous surfaces (embedded
    occupancy and action one-hot). Returns (penalty, g_emb, g_act).
    """
    onehot = one_hot_actions(expert_act)
    emb, _ = disc.embed_occupancy(expert_occ)
    _, caches = disc.core_forward(emb, onehot)
    _, g_emb, g_act = disc.core_backward(caches, np.ones(len(expert_occ)))
    flat = np.concatenate([g_emb.reshape(len(g_act), -1), g_act], axis=1)
    return coef * float((flat**2).sum(axis=1).mean()), g_emb, g_act


def parse_export(path):
    """Read back an export file as {trajectory id: ordered positions}."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        tid, _t, x, y, z = line.split()
        out.setdefault(tid, []).append((int(x), int(y), int(z)))
    return out


def greedy_eval_ref(trainer, round_id):
    """Greedy evaluation one episode at a time: a fresh Env per episode,
    batch-1 actions built from one-state encoder calls and the occupancy
    oracle (sinusoidal positions, occupancy perception), and a stop at the
    first goal entry.

    Returns (goal rate, [(alpha, actions taken, reached goal) per episode]).
    """
    cfg, enc = trainer.cfg, trainer.encoder
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3, round_id))
    )
    episodes = []
    for _ in range(cfg.eval_episodes):
        env = Env(trainer.map, cfg.episode_length)
        alpha = float(rng.random())
        hit = any(env.state.pos in g.voxels for g in trainer.map.goals if g.active)
        actions = []
        for _t in range(cfg.episode_length):
            s = env.state
            row = {
                "occ": local_occupancy(trainer.map, s, enc.L, env.tick).reshape(-1),
                "pos": enc.position_code(s.pos),
                "info": agent_info_vector(s),
            }
            acts, _, _ = act(trainer.policy, trainer._net_inputs(row, np.array(alpha)))
            actions.append(int(acts[0]))
            hit = hit or bool(env.step(acts[0]).goal_ids)
            if hit:
                break
        episodes.append((alpha, actions, hit))
    return sum(hit for _, _, hit in episodes) / len(episodes), episodes


def replay_add_batch_ref(buf, occ, act):
    """``ReplayBuffer.add_batch`` one row at a time, as a ring pointer walk."""
    for i in range(len(act)):
        buf.occ[buf._ptr] = occ[i]
        buf.act[buf._ptr] = act[i]
        buf._ptr = (buf._ptr + 1) % buf.capacity
        buf.size = min(buf.size + 1, buf.capacity)


def stem_forward_ref(embed, conv, codes):
    """The occupancy stem on every window of every cube: an ``im2col`` of the
    one-hot codes (N, X, Y, Z) times the per-tap folded weights, with no
    window index, for the tanh embedding and ReLU conv of every stem. The
    oracle for ``nn.embed_conv_forward``."""
    p = conv.pad
    xp = np.pad(codes, [(0, 0)] + [(p, p)] * 3, constant_values=embed.num_codes)[..., None]
    od = tuple(conv.out_size(side) for side in codes.shape[1:])
    code_cols = nn.im2col(xp, conv.kernel, conv.stride, od)
    one_hot = np.eye(embed.num_codes + 1, embed.num_codes)  # last row: padding
    cols = one_hot[code_cols].reshape(*code_cols.shape[:2], -1)
    rows = np.tanh(embed.table)
    taps = rows @ conv.w.reshape(-1, embed.dim, conv.c_out)
    pre = (cols @ taps.reshape(-1, conv.c_out) + conv.b).reshape(len(codes), *od, conv.c_out)
    return np.maximum(pre, 0.0), (cols, rows, pre)


def stem_backward_ref(embed, conv, cache, dy):
    """Parameter grads of ``stem_forward_ref``: (embed grads, conv grads)."""
    cols, rows, pre = cache
    dpre = (dy * (pre > 0.0)).reshape(-1, conv.c_out)
    g_taps = (cols.reshape(-1, cols.shape[-1]).T @ dpre).reshape(-1, embed.num_codes, conv.c_out)
    gw = rows.T @ g_taps
    d_rows = np.einsum("tko,tdo->kd", g_taps, conv.w.reshape(-1, embed.dim, conv.c_out))
    g_table = d_rows * (1.0 - rows * rows)
    return {"table": g_table}, {"w": gw.reshape(-1, conv.c_out), "b": dpre.sum(axis=0)}
