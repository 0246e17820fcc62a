"""Independent oracles used by the test suite.

Everything here is deliberately written straight-line / brute-force and stays
independent of the library code paths it checks.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from voxhunt.world import AGENT_CODE, SOLID, Action


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


def explore_states(physics, max_keys=2_000_000):
    """Exhaustive BFS over the discrete dynamics from the spawn state.

    State key: (position, jump ticks, double-jump flag, climbing flag,
    platform phase). Returns (positions, climbing positions, key count).
    """
    period = physics.phase_period
    start = physics.initial_state()

    def key(s, ph):
        return (s.pos, s.jump_ticks, s.double_jump_available, s.climbing, ph)

    seen = {key(start, 0)}
    queue = deque([(start, 0)])
    positions = {start.pos}
    climbing_at = set()
    while queue:
        s, ph = queue.popleft()
        for a in Action:
            ns, _, _, _, _ = physics.step(s, a, ph)
            nph = (ph + 1) % period
            k = key(ns, nph)
            if k not in seen:
                if len(seen) >= max_keys:
                    raise RuntimeError("state space larger than expected")
                seen.add(k)
                positions.add(ns.pos)
                if ns.climbing:
                    climbing_at.add(ns.pos)
                queue.append((ns, nph))
    return positions, climbing_at, len(seen)


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
