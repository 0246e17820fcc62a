"""Actor-critic nets, advantage estimation, and the policy optimizer."""

import numpy as np
import pytest

from voxhunt import nn
from voxhunt.config import PROFILES, Profile
from voxhunt.policy import (
    N_ACTIONS,
    ObsNet,
    PPOConfig,
    PPOTrainer,
    RolloutBatch,
    act,
    compute_gae,
    make_critic_net,
    make_policy_net,
)

from .oracles import assert_grads_close, fd_param_gradients, gae_ref


TINY = Profile(
    pe_d=8, L=5, occ_embed=4, conv=((4, 2, 0), (8, 2, 1)), pos_units=16, info_units=(16,),
    trunk=(24, 16),
)


def tiny_net(rng, make=make_policy_net, position_mode="sinusoidal", perception="occupancy"):
    return make(TINY, rng, position_mode=position_mode, perception=perception, dims=(6, 6, 6))


def random_inputs(rng, n, net: ObsNet):
    inputs = {
        "info": rng.normal(size=(n, 9)),
        "alpha": rng.random(size=(n, 1)),
    }
    if net.position_mode == "learned":
        inputs["pos_idx"] = rng.integers(0, 6, size=(n, 3))
    elif net.position_mode == "normalized":
        inputs["pos"] = rng.random(size=(n, 3))
    else:
        inputs["pos"] = rng.uniform(-1, 1, size=(n, 3 * net.profile.pe_d))
    if net.perception == "occupancy":
        inputs["occ"] = rng.integers(0, 4, size=(n, net.profile.L**3))
    elif net.perception == "raycast":
        inputs["rays"] = rng.random(size=(n, 48))
    return inputs


class TestObsNet:
    @pytest.mark.parametrize("position_mode", ["sinusoidal", "normalized", "learned"])
    @pytest.mark.parametrize("perception", ["occupancy", "raycast", "none"])
    def test_forward_backward_all_variants(self, position_mode, perception):
        rng = np.random.default_rng(0)
        net = tiny_net(rng, position_mode=position_mode, perception=perception)
        inputs = random_inputs(rng, 4, net)
        out, cache = net.forward(inputs)
        assert out.shape == (4, N_ACTIONS)
        w_out = rng.normal(size=out.shape)

        def loss():
            y, _ = net.forward(inputs)
            return float((y * w_out).sum())

        grads = net.backward(cache, w_out)
        assert set(grads) == set(net.params())
        fd = fd_param_gradients(loss, net.params(), probes_per_array=3, rng=rng)
        assert_grads_close(grads, fd)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        net = tiny_net(rng)
        net.save(tmp_path / "net.vxnp")
        net2 = tiny_net(np.random.default_rng(99))
        net2.load(tmp_path / "net.vxnp")
        inputs = random_inputs(rng, 3, net)
        a, _ = net.forward(inputs)
        b, _ = net2.forward(inputs)
        assert np.array_equal(a, b)

    def test_wrong_descriptor_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        net = tiny_net(rng)
        net.save(tmp_path / "net.vxnp")
        other = tiny_net(rng, perception="raycast")
        with pytest.raises(nn.DescriptorMismatchError):
            other.load(tmp_path / "net.vxnp")


class TestAct:
    def test_uniform_logits_give_uniform_distribution(self):
        rng = np.random.default_rng(3)
        net = tiny_net(rng)
        net.layers["head"].w[:] = 0.0
        net.layers["head"].b[:] = 0.0
        inputs = random_inputs(rng, 2, net)
        _, _, probs = act(net, inputs, rng)
        assert np.allclose(probs, 0.1, atol=1e-12)

    def test_dominant_logit_wins_greedy(self):
        rng = np.random.default_rng(4)
        net = tiny_net(rng)
        net.layers["head"].w[:] = 0.0
        net.layers["head"].b[:] = 0.0
        net.layers["head"].b[6] = 50.0
        inputs = random_inputs(rng, 3, net)
        actions, logp, _ = act(net, inputs, greedy=True)
        assert np.all(actions == 6)
        assert np.allclose(logp, 0.0, atol=1e-12)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(5)
        net = tiny_net(rng)
        inputs = random_inputs(rng, 4, net)
        a1, l1, _ = act(net, inputs, np.random.default_rng(42))
        a2, l2, _ = act(net, inputs, np.random.default_rng(42))
        assert np.array_equal(a1, a2) and np.array_equal(l1, l2)

    def test_initial_entropy_near_log_ten(self):
        # small head init keeps the starting policy near uniform
        rng = np.random.default_rng(6)
        net = tiny_net(rng)
        inputs = random_inputs(rng, 64, net)
        _, _, probs = act(net, inputs, rng)
        entropy = -(probs * np.log(probs)).sum(axis=1).mean()
        assert abs(entropy - np.log(10)) < 0.05


class TestGae:
    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=6)
        v = rng.normal(size=7)
        adv, ret = compute_gae(r, v, gamma=0.9, lam=0.0)
        expected = r + 0.9 * v[1:] - v[:-1]
        assert np.allclose(adv, expected, atol=1e-12)
        assert np.allclose(ret, adv + v[:-1], atol=1e-12)

    def test_all_zero_rewards_and_values(self):
        adv, ret = compute_gae(np.zeros(5), np.zeros(6), 0.9, 0.95)
        assert np.array_equal(adv, np.zeros(5))
        assert np.array_equal(ret, np.zeros(5))

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(8)
        r = rng.normal(size=5)
        v = rng.normal(size=6)
        adv, _ = compute_gae(r, v, gamma=0.9, lam=0.95)
        assert np.allclose(adv, gae_ref(r, v, 0.9, 0.95), atol=1e-12, rtol=0)

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            compute_gae(np.zeros(5), np.zeros(5), 0.9, 0.95)


class BanditNet(nn.Net):
    """Minimal two-action actor over a constant input, for update checks."""

    def __init__(self, out_dim, rng):
        super().__init__()
        self.layers["fc"] = nn.Dense(1, 8, "relu", rng)
        self.layers["head"] = nn.Dense(8, out_dim, None, rng, w_scale=0.01)

    def forward(self, inputs):
        h, c1 = self.layers["fc"].forward(inputs["x"])
        out, c2 = self.layers["head"].forward(h)
        return out, (c1, c2)

    def backward(self, caches, dout):
        c1, c2 = caches
        grads = {}
        dx, g = self.layers["head"].backward(c2, dout)
        nn.accumulate(grads, g, "head")
        _, g = self.layers["fc"].backward(c1, dx)
        nn.accumulate(grads, g, "fc")
        return grads


class TestPPO:
    def _bandit_batch(self, policy, rng, n=64):
        inputs = {"x": np.ones((n, 1))}
        logits, _ = policy.forward(inputs)
        probs = nn.softmax(logits)
        actions = (rng.random(n)[:, None] >= probs.cumsum(axis=1)).sum(axis=1)
        actions = np.minimum(actions, 1)
        rewards = (actions == 0).astype(np.float64)  # action 0 pays 1, else 0
        logp = np.log(probs[np.arange(n), actions])
        adv = rewards - rewards.mean()
        return RolloutBatch(
            inputs=inputs,
            actions=actions,
            logp_old=logp,
            advantages=adv,
            returns=rewards,
        )

    def test_bandit_learns_greedy_action(self):
        rng = np.random.default_rng(9)
        policy = BanditNet(2, rng)
        critic = BanditNet(1, rng)
        cfg = PPOConfig(lr=3e-3, epochs=2, minibatch=64, entropy_coef=0.01)
        trainer = PPOTrainer(policy, critic, cfg)
        for _ in range(200):
            batch = self._bandit_batch(policy, rng)
            trainer.update(batch, rng)
        logits, _ = policy.forward({"x": np.ones((1, 1))})
        probs = nn.softmax(logits)[0]
        assert probs[0] > 0.9

    def test_identical_policy_ratio_one_no_clip(self):
        rng = np.random.default_rng(10)
        policy = BanditNet(2, rng)
        critic = BanditNet(1, rng)
        trainer = PPOTrainer(policy, critic, PPOConfig(lr=1e-4))
        batch = self._bandit_batch(policy, rng, n=32)
        stats = trainer.update(batch, rng)
        # first minibatch of the first epoch sees ratio exactly 1: no clipping
        assert stats["clip_frac"] < 0.5  # later epochs may clip a little

    def test_zero_advantage_leaves_policy_loss_zero(self):
        rng = np.random.default_rng(11)
        policy = BanditNet(2, rng)
        critic = BanditNet(1, rng)
        trainer = PPOTrainer(policy, critic, PPOConfig(lr=1e-4, normalize_advantages=False, epochs=1))
        batch = self._bandit_batch(policy, rng, n=32)
        batch.advantages[:] = 0.0
        stats = trainer.update(batch, rng)
        assert stats["policy_loss"] == 0.0

    def test_ppo_gradient_matches_finite_difference_loss(self):
        """The assembled policy gradient equals d(loss)/d(theta) of the scalar
        PPO objective, checked by finite differences at matched parameters."""
        rng = np.random.default_rng(12)
        policy = BanditNet(2, rng)
        batch_inputs = {"x": np.ones((16, 1))}
        actions = rng.integers(0, 2, size=16)
        adv = rng.normal(size=16)
        logits0, _ = policy.forward(batch_inputs)
        logp_old = nn.log_softmax(logits0)[np.arange(16), actions] + rng.normal(
            scale=0.3, size=16
        )
        clip, ent_c = 0.2, 0.1

        def scalar_loss():
            logits, _ = policy.forward(batch_inputs)
            logp_all = nn.log_softmax(logits)
            probs = np.exp(logp_all)
            logp = logp_all[np.arange(16), actions]
            ratio = np.exp(logp - logp_old)
            unclipped = ratio * adv
            clipped = np.clip(ratio, 1 - clip, 1 + clip) * adv
            pg = -np.minimum(unclipped, clipped).mean()
            entropy = -(probs * logp_all).sum(axis=1).mean()
            return float(pg - ent_c * entropy)

        logits, cache = policy.forward(batch_inputs)
        logp_all = nn.log_softmax(logits)
        probs = np.exp(logp_all)
        logp = logp_all[np.arange(16), actions]
        ratio = np.exp(logp - logp_old)
        active = np.where(adv >= 0, ratio <= 1 + clip, ratio >= 1 - clip)
        dlogp = np.where(active, -adv * ratio, 0.0) / 16
        entropy_rows = -(probs * logp_all).sum(axis=1)
        dlogits = dlogp[:, None] * (np.eye(2)[actions] - probs)
        dlogits += (ent_c / 16) * probs * (logp_all + entropy_rows[:, None])
        grads = policy.backward(cache, dlogits)
        fd = fd_param_gradients(scalar_loss, policy.params(), probes_per_array=8, rng=rng)
        assert_grads_close(grads, fd)


class TestPaperProfile:
    def test_reference_architecture_builds_and_differentiates(self, tmp_path):
        """The full-size profile (21^3 cube, four conv layers, 512/1024 dense)
        constructs, runs forward/backward, and round-trips its parameters."""
        branches = dict(position_mode="sinusoidal", perception="occupancy", dims=(64, 64, 64))
        rng = np.random.default_rng(0)
        net = make_policy_net(PROFILES["paper"], rng, **branches)
        inputs = {
            "pos": rng.uniform(-1, 1, size=(2, 96)),
            "info": rng.normal(size=(2, 9)),
            "occ": rng.integers(0, 4, size=(2, 21**3)),
            "alpha": rng.random(size=(2, 1)),
        }
        out, cache = net.forward(inputs)
        assert out.shape == (2, N_ACTIONS)
        grads = net.backward(cache, np.ones_like(out))
        assert set(grads) == set(net.params())
        net.save(tmp_path / "paper.vxnp")
        net2 = make_policy_net(PROFILES["paper"], np.random.default_rng(9), **branches)
        net2.load(tmp_path / "paper.vxnp")
        out2, _ = net2.forward(inputs)
        assert np.array_equal(out, out2)

    def test_reference_rnd_and_disc_shapes(self):
        from voxhunt.curiosity import RNDNet
        from voxhunt.imitation import Discriminator

        rng = np.random.default_rng(1)
        rnd = RNDNet(PROFILES["paper"], rng)
        out, _ = rnd.forward({"pos": rng.normal(size=(2, 96)), "info": rng.normal(size=(2, 9))})
        assert out.shape == (2, 128)
        disc = Discriminator(PROFILES["paper"], rng)
        d, _ = disc.forward(
            rng.integers(0, 4, size=(2, 21**3)),
            np.eye(N_ACTIONS)[rng.integers(0, N_ACTIONS, size=2)],
        )
        assert d.shape == (2,)


class TestCriticRegression:
    def test_value_mse_decreases_over_first_updates(self):
        rng = np.random.default_rng(13)
        critic = tiny_net(rng, make_critic_net)
        adam = nn.Adam(critic.params(), lr=3e-3)
        inputs = random_inputs(rng, 128, critic)
        targets = rng.normal(size=128)
        losses = []
        for _ in range(10):
            v, cache = critic.forward(inputs)
            err = v[:, 0] - targets
            losses.append(float((err**2).mean()))
            grads = critic.backward(cache, (2.0 / 128) * err[:, None])
            adam.step(grads)
        smooth = np.convolve(losses, np.ones(3) / 3, mode="valid")
        assert all(smooth[i + 1] <= smooth[i] + 1e-9 for i in range(len(smooth) - 1))
