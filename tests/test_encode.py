"""Encoder correctness: positional codes, occupancy cubes, ray casts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxhunt.config import PROFILES, TrainConfig
from voxhunt.encode import (
    ObservationEncoder,
    PEConfig,
    agent_info_vector,
    normalized_position,
    positional_embedding,
    raycast_observation,
)
from voxhunt.imitation import load_demos, one_hot_actions
from voxhunt.policy import N_ACTIONS, make_critic_net, make_policy_net
from voxhunt.trainer import Trainer
from voxhunt.world import AGENT_CODE, AgentState, Physics, SOLID

from .conftest import flat_map
from .oracles import Env, agent_info_ref, local_occupancy, positional_embedding_ref


class TestPositionalEmbedding:
    def test_pos_zero_alternates_zero_one(self):
        v = positional_embedding(0, PEConfig(d=8))
        assert np.array_equal(v[0::2], np.zeros(4))
        assert np.array_equal(v[1::2], np.ones(4))

    def test_first_element_is_sin_of_pos(self):
        v = positional_embedding(1, PEConfig(d=4))
        assert v[0] == pytest.approx(np.sin(1.0), abs=1e-12)
        assert v[0] == pytest.approx(0.841471, abs=1e-6)

    @given(pos=st.integers(0, 10_000), d=st.sampled_from([2, 8, 32]))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_matches_scalar_reference(self, pos, d):
        cfg = PEConfig(d=d)
        v = positional_embedding(pos, cfg)
        assert np.max(np.abs(v)) <= 1.0 + 1e-15
        ref = positional_embedding_ref(pos, d)
        assert np.allclose(v, ref, atol=1e-12, rtol=0)

    def test_rejects_odd_d(self):
        with pytest.raises(ValueError):
            PEConfig(d=5)

    def test_pure_function(self):
        cfg = PEConfig(d=16)
        assert np.array_equal(positional_embedding(37, cfg), positional_embedding(37, cfg))


def encode_position(pos3, cfg):
    """The encoder's concatenated X, Y, Z code on a map large enough for pos3."""
    return ObservationEncoder(flat_map(dims=(8, 8, 8)), pe=cfg).position_code(pos3)


class TestEncodePosition:
    def test_origin_is_three_zero_patterns(self):
        cfg = PEConfig(d=6)
        v = encode_position((0, 0, 0), cfg)
        assert np.array_equal(v, np.tile(positional_embedding(0, cfg), 3))

    def test_block_structure(self):
        cfg = PEConfig(d=8)
        a = encode_position((5, 0, 0), cfg)
        b = encode_position((0, 5, 0), cfg)
        zero = positional_embedding(0, cfg)
        assert not np.array_equal(a[:8], zero) and np.array_equal(a[8:], np.tile(zero, 2))
        assert np.array_equal(b[:8], zero) and not np.array_equal(b[8:16], zero)

    def test_matches_elementwise_reference(self):
        cfg = PEConfig(d=32)
        v = encode_position((3, 4, 5), cfg)
        ref = np.concatenate([positional_embedding_ref(c, 32) for c in (3, 4, 5)])
        assert np.allclose(v, ref, atol=1e-12, rtol=0)

    def test_injective_over_64_cubed_grid(self):
        import hashlib

        cfg = PEConfig(d=32)
        table = np.stack([positional_embedding(i, cfg) for i in range(64)])
        digests = set()
        for x in range(64):
            bx = table[x].tobytes()
            for y in range(64):
                bxy = bx + table[y].tobytes()
                for z in range(64):
                    digests.add(
                        hashlib.blake2b(bxy + table[z].tobytes(), digest_size=16).digest()
                    )
        assert len(digests) == 64**3


class TestAblationEncoders:
    def test_normalized_endpoints(self):
        dims = (10, 20, 40)
        assert np.array_equal(normalized_position((0, 0, 0), dims), np.zeros(3))
        assert np.array_equal(normalized_position(dims, dims), np.ones(3))


class TestLocalOccupancy:
    def test_center_is_agent_code(self, flat5):
        s = AgentState(pos=(2, 1, 2))
        occ = local_occupancy(flat5, s, L=3)
        assert occ[1, 1, 1] == AGENT_CODE

    def test_midair_sees_floor_below(self, flat5):
        s = AgentState(pos=(2, 2, 2), grounded=False)
        occ = local_occupancy(flat5, s, L=5)
        assert occ[2, 2, 2] == AGENT_CODE
        assert np.all(occ[1:4, 0, 1:4] == SOLID)  # floor plane two below center

    def test_corner_pads_out_of_bounds_as_solid(self, flat5):
        s = AgentState(pos=(0, 1, 0))
        occ = local_occupancy(flat5, s, L=3)
        assert np.all(occ[0, :, :] == SOLID)
        assert np.all(occ[:, :, 0] == SOLID)

    def test_missing_collision_renders_solid(self, area1):
        hole = next(b for b in area1.bugs if b.kind == "missing_collision")
        cell = sorted(hole.voxels)[0]
        s = AgentState(pos=(cell[0] - 1, cell[1], cell[2]))
        occ = local_occupancy(area1, s, L=3)
        assert occ[2, 1, 1] == SOLID

    def test_platform_renders_solid_at_its_tick(self, area1):
        p = area1.platforms[0]
        cell = sorted(p.cells_at(4))[0]
        s = AgentState(pos=(cell[0], cell[1] + 1, cell[2]))
        occ4 = local_occupancy(area1, s, L=3, tick=4)
        assert occ4[1, 0, 1] == SOLID

    def test_even_L_rejected(self, flat5):
        with pytest.raises(ValueError):
            local_occupancy(flat5, AgentState(pos=(2, 1, 2)), L=4)

    def test_encoder_matches_direct_function(self, area1):
        """Every row of a batch encoded at every tick of five platform
        periods, for L = 3 and 7, equals the one-state oracles: an Env walk
        from spawn, the map's corners and edge midpoints, and the voxels just
        above the platform at that tick."""
        period = Physics(area1).phase_period
        env = Env(area1)
        walk = [env.state]
        for a in np.random.default_rng(2).integers(0, 10, size=5 * period):
            walk.append(env.step(int(a)).state)
        nx, ny, nz = area1.dims
        edges = {
            (x, y, z)
            for x in (0, nx // 2, nx - 1)
            for y in (0, ny // 2, ny - 1)
            for z in (0, nz // 2, nz - 1)
        }
        rng = np.random.default_rng(3)
        for L in (3, 7):
            enc = ObservationEncoder(area1, L=L)
            for t, state in enumerate(walk):
                above = {(x, y + 1, z) for x, y, z in area1.platforms[0].cells_at(t)}
                states = [state] + [
                    AgentState(
                        p, 0, *(bool(f) for f in rng.integers(0, 2, size=3)),
                        tuple(int(d) for d in rng.integers(-1, 2, size=3)),
                    )
                    for p in sorted(edges | above)
                ]
                pos = np.array([s.pos for s in states])
                prev = pos - np.array([s.last_disp for s in states])
                flags = [np.array([getattr(s, f) for s in states]) for f in
                         ("grounded", "climbing", "double_jump_available")]
                rows = {
                    mode: enc.features(pos, prev, *flags, t, mode)
                    for mode in ("sinusoidal", "normalized", "learned")
                }
                got = rows["sinusoidal"]
                assert got["occ"].shape == (len(states), L**3) and got["occ"].dtype == np.uint8
                for i, s in enumerate(states):
                    direct = local_occupancy(area1, s, L=L, tick=t).reshape(-1)
                    assert np.array_equal(got["occ"][i], direct), (L, t, s)
                    code = np.concatenate([positional_embedding(c, enc.pe) for c in s.pos])
                    assert np.array_equal(got["pos_pe"][i], code)
                    assert np.array_equal(got["pos_pe"][i], enc.position_code(s.pos))
                    assert np.array_equal(got["pos"][i], code)
                    assert np.array_equal(got["info"][i], agent_info_vector(s))
                    assert np.array_equal(got["info"][i], agent_info_ref(s))
                    assert np.array_equal(
                        rows["normalized"]["pos"][i], normalized_position(s.pos, area1.dims)
                    )
                    assert rows["learned"]["pos_idx"][i].tolist() == list(s.pos)
                for mode in ("normalized", "learned"):
                    for key in ("occ", "pos_pe", "info"):
                        assert np.array_equal(rows[mode][key], got[key])


class TestObservationHonesty:
    def test_observations_identical_across_physics_settings(self, area1):
        rng = np.random.default_rng(7)
        actions = [int(a) for a in rng.integers(0, 10, size=80)]
        env_on = Env(area1, bugs_enabled=True)
        enc = ObservationEncoder(area1, L=7)
        states = [env_on.state]
        for a in actions:
            states.append(env_on.step(a).state)
        # Encoders only see (map, state, tick): encoding the same states again
        # with a fresh encoder must give byte-identical observations.
        pos, ticks = np.array([s.pos for s in states]), np.arange(len(states))
        again = ObservationEncoder(area1, L=7).cubes(pos, ticks)
        assert np.array_equal(enc.cubes(pos, ticks), again)
        for t, s in enumerate(states):
            r1 = raycast_observation(area1, s, tick=t)
            r2 = raycast_observation(area1, s, tick=t)
            assert np.array_equal(r1, r2)


class TestRaycast:
    def test_no_hit_in_open_space_with_short_range(self):
        m = flat_map(dims=(30, 30, 30), spawn=(15, 15, 15))
        m.voxels[:, :, :] = 0
        m.voxels[:, 0, :] = SOLID
        s = AgentState(pos=(15, 15, 15), grounded=False)
        v = raycast_observation(m, s, max_range=5)
        horiz = v.reshape(24, 2)[8:16]  # middle fan: elevation 0
        assert np.all(horiz[:, 0] == 1.0)
        assert np.all(horiz[:, 1] == 0.0)

    def test_wall_three_north_range_ten(self):
        m = flat_map(dims=(20, 6, 20), spawn=(10, 1, 10))
        m.voxels[10, 1, 13] = SOLID
        s = AgentState(pos=(10, 1, 10))
        v = raycast_observation(m, s, max_range=10).reshape(24, 2)
        north = v[8]  # elevation 0 fan starts at index 8; first compass is north
        assert north[0] == pytest.approx(0.3)
        assert north[1] == SOLID

    def test_deterministic(self, area1):
        s = AgentState(pos=area1.spawn)
        assert np.array_equal(
            raycast_observation(area1, s), raycast_observation(area1, s)
        )


class TestAgentInfo:
    def test_flags_and_direction(self):
        s = AgentState(pos=(1, 1, 1), grounded=True, climbing=False,
                       double_jump_available=True, last_disp=(1, 0, -1))
        v = agent_info_vector(s)
        assert v.shape == (9,)
        assert v[0] == 1.0 and v[1] == 0.0 and v[2] == 1.0
        assert np.array_equal(v[3:6], [1, 0, -1])
        assert np.allclose(np.linalg.norm(v[6:9]), 1.0)

    def test_stationary_direction_is_zero(self):
        v = agent_info_vector(AgentState(pos=(0, 0, 0)))
        assert np.array_equal(v[3:9], np.zeros(6))


class TestNetWidths:
    """The rows the encoder writes have the widths every net reads, in each profile."""

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_encoded_batch_feeds_every_net(self, name, area1_demo_paths, tmp_path):
        cfg = TrainConfig(
            map_path="fixture:testmap_area1.json", demo_paths=area1_demo_paths[:1], profile=name
        )
        trainer = Trainer(cfg, tmp_path / "run")  # its encoder, and its disc and RND pair
        profile, enc, vmap = trainer.profile, trainer.encoder, trainer.map
        replay = load_demos(area1_demo_paths[:1], vmap).replay
        t = np.arange(4)
        pos, prev, *flags = replay.rows(t, 0)
        rng = np.random.default_rng(0)
        rays = np.stack([
            raycast_observation(vmap, AgentState(tuple(p)), tick=k)
            for k, p in zip(t, pos.tolist())
        ])
        alpha = rng.random((len(t), 1))

        code_width = enc.position_code(pos).shape[1]
        assert code_width == 3 * profile.pe_d
        assert code_width == trainer.policy.layers["pos_fc"].n_in
        assert code_width == trainer.rnd.target.layers["pos_fc"].n_in
        for position_mode in ("sinusoidal", "normalized", "learned"):
            x = {**enc.features(pos, prev, *flags, t, position_mode), "rays": rays, "alpha": alpha}
            for perception in ("occupancy", "raycast", "none"):
                branches = dict(position_mode=position_mode, perception=perception, dims=vmap.dims)
                for make, width in ((make_policy_net, N_ACTIONS), (make_critic_net, 1)):
                    net = make(profile, rng, **branches)
                    out, _ = net.forward({k: x[k] for k in net.input_keys})
                    assert out.shape == (len(t), width)
                    assert np.all(np.isfinite(out))

        d = trainer.amp.disc.score(x["occ"], one_hot_actions(replay.actions[t, 0]))
        assert d.shape == (len(t),)
        for rnd in (trainer.rnd.target, trainer.rnd.predictor):
            out, _ = rnd.forward({"pos": x["pos_pe"], "info": x["info"]})
            assert out.shape == (len(t), profile.rnd_out)
