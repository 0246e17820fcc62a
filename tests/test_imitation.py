"""Discriminator loss, bounded imitation reward, gradient penalty, demos."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxhunt.imitation import (
    AMPModule,
    DemoReferenceError,
    DemoReplayError,
    Discriminator,
    ImitationConfig,
    ReplayBuffer,
    adversarial_loss_and_grads,
    demo_pairs,
    imitation_reward_from_d,
    load_demos,
    one_hot_actions,
    penalty_parameter_grads,
    check_demos,
)
from voxhunt.config import Profile
from voxhunt.encode import ObservationEncoder
from voxhunt.world import Action

from .oracles import (
    assert_grads_close,
    fd_param_gradients,
    gradient_penalty,
    replay_add_batch_ref,
)


def tiny_disc_profile():
    return Profile(L=5, occ_embed=4, conv=((4, 2, 0), (8, 2, 1)), act_units=16, trunk=(24, 16))


def random_pairs(rng, n, L=5):
    return rng.integers(0, 4, size=(n, L**3)), rng.integers(0, 10, size=n)


class TestImitationReward:
    def test_expert_perfect_gives_one(self):
        assert imitation_reward_from_d(1.0) == 1.0

    def test_policy_like_gives_zero(self):
        assert imitation_reward_from_d(-1.0) == 0.0

    def test_midpoint(self):
        assert imitation_reward_from_d(0.0) == 0.75

    def test_clamped_above(self):
        assert imitation_reward_from_d(3.0) == 0.0

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=200)
    def test_bounds_hold_for_any_d(self, d):
        r = float(imitation_reward_from_d(d))
        assert 0.0 <= r <= 1.0


class TestAdversarialLoss:
    def test_perfectly_separated_loss_zero(self):
        rng = np.random.default_rng(0)
        disc = Discriminator(tiny_disc_profile(), rng)
        e_occ, e_act = random_pairs(rng, 8)
        p_occ, p_act = random_pairs(rng, 8)
        d_e, _ = disc.forward(e_occ, one_hot_actions(e_act))
        d_p, _ = disc.forward(p_occ, one_hot_actions(p_act))
        loss = ((d_e - 1) ** 2).mean() + ((d_p + 1) ** 2).mean()
        got, _ = adversarial_loss_and_grads(disc, e_occ, e_act, p_occ, p_act)
        assert got == pytest.approx(loss, abs=1e-12)

    def test_zero_output_loss_two(self):
        rng = np.random.default_rng(1)
        disc = Discriminator(tiny_disc_profile(), rng)
        disc.layers["head"].w[:] = 0.0
        disc.layers["head"].b[:] = 0.0
        e_occ, e_act = random_pairs(rng, 4)
        p_occ, p_act = random_pairs(rng, 4)
        loss, _ = adversarial_loss_and_grads(disc, e_occ, e_act, p_occ, p_act)
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        disc = Discriminator(tiny_disc_profile(), rng)
        e_occ, e_act = random_pairs(rng, 6)
        p_occ, p_act = random_pairs(rng, 6)

        def loss():
            d_e = disc.score(e_occ, one_hot_actions(e_act))
            d_p = disc.score(p_occ, one_hot_actions(p_act))
            return float(((d_e - 1) ** 2).mean() + ((d_p + 1) ** 2).mean())

        _, grads = adversarial_loss_and_grads(disc, e_occ, e_act, p_occ, p_act)
        fd = fd_param_gradients(loss, disc.params(), probes_per_array=4, rng=rng)
        assert_grads_close(grads, fd)


class TestDiscriminatorStem:
    """The codes path folds the embedding into conv0; the penalty path does not."""

    def test_codes_path_matches_embedded_path(self):
        rng = np.random.default_rng(9)
        disc = Discriminator(tiny_disc_profile(), rng)
        occ, act = random_pairs(rng, 12)
        onehot = one_hot_actions(act)

        d, caches = disc.forward(occ, onehot)
        emb, emb_cache = disc.embed_occupancy(occ)
        d_ref, core_caches = disc.core_forward(emb, onehot)
        assert np.abs(d - d_ref).max() <= 1e-12 * np.abs(d_ref).max()

        dout = rng.normal(size=12)
        grads = disc.backward(caches, dout)
        ref, d_emb, _ = disc.core_backward(core_caches, dout)
        _, g = disc.layers["occ_embed"].backward(emb_cache, d_emb.reshape(12, -1, 4))
        ref["occ_embed.table"] = g["table"]
        assert set(grads) == set(ref) == set(disc.params())
        for k in ref:
            assert np.abs(grads[k] - ref[k]).max() <= 1e-12 * max(np.abs(ref[k]).max(), 1e-300), k


class TestGradientPenalty:
    def test_constant_discriminator_zero_penalty(self):
        rng = np.random.default_rng(3)
        disc = Discriminator(tiny_disc_profile(), rng)
        for name, layer in disc.layers.items():
            if name != "occ_embed":
                layer.w[:] = 0.0
                layer.b[:] = 0.0
        disc.layers["head"].b[:] = 4.2
        occ, acts = random_pairs(rng, 5)
        penalty, g_emb, g_act = gradient_penalty(disc, occ, acts, coef=5.0)
        assert penalty == 0.0
        assert np.array_equal(g_emb, np.zeros_like(g_emb))
        assert np.array_equal(g_act, np.zeros_like(g_act))

    def test_linear_head_penalty_is_coef_times_weight_norm(self):
        """For D linear in its continuous inputs the penalty is input-free."""
        rng = np.random.default_rng(4)
        profile = tiny_disc_profile()
        disc = Discriminator(profile, rng)
        # collapse to a linear map: identity-free path via zeroed trunk weights
        # except a single linear route from the action one-hot branch
        for name in ("trunk_fc0", "trunk_fc1"):
            disc.layers[name].activation = None
        disc.layers["act_fc"].activation = None
        for i in range(2):
            disc.layers[f"conv{i}"].w[:] = 0.0
            disc.layers[f"conv{i}"].b[:] = 0.0
        occ, acts = random_pairs(rng, 6)
        # effective linear weight on the one-hot input
        w_eff = (
            disc.layers["act_fc"].w
            @ disc.layers["trunk_fc0"].w[-profile.act_units :, :]
            @ disc.layers["trunk_fc1"].w
            @ disc.layers["head"].w
        )[:, 0]
        penalty, _, g_act = gradient_penalty(disc, occ, acts, coef=5.0)
        assert np.allclose(g_act, np.tile(w_eff, (6, 1)), atol=1e-10)
        assert penalty == pytest.approx(5.0 * (w_eff**2).sum(), rel=1e-9)

    def test_input_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        disc = Discriminator(tiny_disc_profile(), rng)
        occ, acts = random_pairs(rng, 4)
        onehot = one_hot_actions(acts)
        emb, _ = disc.embed_occupancy(occ)
        _, caches = disc.core_forward(emb, onehot)
        _, g_emb, g_act = disc.core_backward(caches, np.ones(4))

        h = 1e-6
        flat = emb.reshape(-1)
        idx = rng.choice(flat.size, size=12, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            dp, _ = disc.core_forward(emb, onehot)
            flat[i] = orig - h
            dm, _ = disc.core_forward(emb, onehot)
            flat[i] = orig
            fd = (dp.sum() - dm.sum()) / (2 * h)
            got = g_emb.reshape(-1)[i]
            assert abs(got - fd) / max(abs(fd), 1e-7) < 1e-4, f"emb[{i}]"

    def test_penalty_parameter_grads_follow_finite_differences(self):
        rng = np.random.default_rng(6)
        disc = Discriminator(tiny_disc_profile(), rng)
        occ, acts = random_pairs(rng, 4)

        def penalty_value():
            p, _, _ = gradient_penalty(disc, occ, acts, coef=5.0)
            return p

        _, grads = penalty_parameter_grads(disc, occ, acts, coef=5.0, fd_step=1e-4)
        probe_params = {
            k: v for k, v in disc.params().items() if not k.startswith("occ_embed")
        }
        fd = fd_param_gradients(penalty_value, probe_params, probes_per_array=3, rng=rng)
        # looser tolerance: the training-side estimate itself is a directional
        # finite difference; 1e-3 relative is ample for an optimizer step
        assert_grads_close(grads, fd, rtol=1e-3, atol=1e-6)


class TestReplayBuffer:
    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(capacity=4, occ_cells=2)
        occ = np.arange(12, dtype=np.uint8).reshape(6, 2)
        buf.add_batch(occ, np.arange(6))
        assert buf.size == 4
        rng = np.random.default_rng(0)
        _, acts = buf.sample(rng, 50)
        assert set(acts) <= {2, 3, 4, 5}

    @pytest.mark.parametrize(
        "capacity,batches",
        [(7, [5, 5]), (7, [3, 7]), (7, [2, 16]), (8, [8, 8]), (5, [1, 1, 1, 4, 9, 3])],
    )
    def test_add_batch_matches_row_by_row_ring(self, capacity, batches):
        # wrap-around, a batch of exactly capacity rows, a batch larger than it
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(capacity, occ_cells=4)
        ref = ReplayBuffer(capacity, occ_cells=4)
        for n in batches:
            occ = rng.integers(0, 4, size=(n, 4)).astype(np.uint8)
            act = rng.integers(0, 10, size=n)
            buf.add_batch(occ, act)
            replay_add_batch_ref(ref, occ, act)
            assert np.array_equal(buf.occ, ref.occ)
            assert np.array_equal(buf.act, ref.act)
            assert (buf.size, buf._ptr) == (ref.size, ref._ptr)

    def test_empty_buffer_rejects_sampling(self):
        buf = ReplayBuffer(capacity=4, occ_cells=2)
        with pytest.raises(ValueError):
            buf.sample(np.random.default_rng(0), 1)


class TestDemos:
    def test_bundled_area1_pack_loads_and_reaches_goal(self, area1, area1_demo_paths):
        demos = load_demos(area1_demo_paths, area1)
        assert len(demos) == 6
        assert all(d.trajectory.reached_goal for d in demos.demos)

    def test_wrong_map_reference_rejected(self, area2, area1_demo_paths):
        with pytest.raises(DemoReferenceError, match="testmap_area1"):
            load_demos([area1_demo_paths[0]], area2)

    def test_non_goal_script_rejected(self, area1):
        with pytest.raises(DemoReplayError):
            check_demos([("waits", area1.name, 0, [Action.WAIT] * 5)], area1)

    def test_demo_pairs_shapes(self, area1, area1_demo_paths):
        demos = load_demos(area1_demo_paths, area1)
        enc = ObservationEncoder(area1, L=7)
        occ, acts = demo_pairs(demos, enc)
        total = sum(len(d.actions) for d in demos.demos)
        assert occ.shape == (total, 343)
        assert acts.shape == (total,)

    def test_empty_demo_file_rejected(self, tmp_path, area1):
        p = tmp_path / "demo.txt"
        p.write_text("format_version: 1\nmap: testmap_area1\ngoal: 0\n")
        from voxhunt.world import MapFormatError

        with pytest.raises(MapFormatError):
            load_demos([p], area1)


class TestAMPModule:
    def test_update_runs_and_reward_bounded(self, area1, area1_demo_paths):
        rng = np.random.default_rng(7)
        demos = load_demos(area1_demo_paths, area1)
        enc = ObservationEncoder(area1, L=5)
        e_occ, e_act = demo_pairs(demos, enc)
        amp = AMPModule(
            tiny_disc_profile(),
            ImitationConfig(batch_size=8, updates_per_iter=1),
            e_occ,
            e_act,
            rng,
        )
        p_occ, p_act = random_pairs(rng, 40)
        amp.observe_policy_pairs(p_occ, p_act)
        stats = amp.update(rng)
        assert np.isfinite(stats["disc_loss"])
        r = amp.reward(p_occ, p_act)
        assert np.all((r >= 0.0) & (r <= 1.0))
