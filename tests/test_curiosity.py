"""Novelty reward behavior: definition, decay, frozen target."""

import hashlib

import numpy as np
import pytest

from voxhunt.config import Profile
from voxhunt.curiosity import CuriosityConfig, RNDPair, RunningStd


def tiny_profile():
    return Profile(pe_d=4, rnd_pos_units=16, rnd_info_units=(16,), rnd_trunk=(24,), rnd_out=16)


def make_pair(cfg=None, seed_t=0, seed_p=1):
    return RNDPair(
        tiny_profile(),
        cfg or CuriosityConfig(lr=1e-3, batch_size=32),
        np.random.default_rng(seed_t),
        np.random.default_rng(seed_p),
    )


def random_states(rng, n, shift=0.0):
    return {
        "pos": rng.normal(loc=shift, size=(n, 12)),
        "info": rng.normal(size=(n, 9)),
    }


class TestReward:
    def test_predictor_equal_to_target_gives_zero(self):
        pair = make_pair()
        pair.predictor.set_params(pair.target.params())
        rng = np.random.default_rng(2)
        r = pair.raw_reward(random_states(rng, 10))
        assert np.allclose(r, 0.0, atol=1e-24)

    def test_nonnegative(self):
        pair = make_pair()
        rng = np.random.default_rng(3)
        assert np.all(pair.raw_reward(random_states(rng, 50)) >= 0.0)

    def test_matches_elementwise_recomputation(self):
        pair = make_pair()
        rng = np.random.default_rng(4)
        inputs = random_states(rng, 7)
        t, _ = pair.target.forward(inputs)
        p, _ = pair.predictor.forward(inputs)
        ref = np.array([((t[i] - p[i]) ** 2).mean() for i in range(7)])
        assert np.allclose(pair.raw_reward(inputs), ref, atol=1e-14, rtol=0)

    def test_loss_equals_mean_reward_on_batch(self):
        pair = make_pair()
        rng = np.random.default_rng(5)
        inputs = random_states(rng, 16)
        r_before = pair.raw_reward(inputs).mean()
        loss = pair.train_step(inputs)
        assert loss == pytest.approx(float(r_before), abs=1e-12)


class TestTraining:
    def test_repeated_state_reward_collapses(self):
        pair = make_pair()
        rng = np.random.default_rng(6)
        one = random_states(rng, 1)
        batch = {k: np.repeat(v, 32, axis=0) for k, v in one.items()}
        initial = pair.raw_reward(one)[0]
        for _ in range(200):
            pair.train_step(batch)
        final = pair.raw_reward(one)[0]
        assert final < 0.01 * initial

    def test_target_untouched_by_training(self):
        pair = make_pair()
        rng = np.random.default_rng(7)
        h0 = hashlib.sha256(pair.target.param_bytes()).hexdigest()
        for _ in range(50):
            pair.train_step(random_states(rng, 16))
        assert hashlib.sha256(pair.target.param_bytes()).hexdigest() == h0

    def test_novelty_ordering_after_region_training(self):
        pair = make_pair()
        rng = np.random.default_rng(8)
        region_a = random_states(rng, 256, shift=0.0)
        region_b = random_states(rng, 256, shift=4.0)
        for _ in range(300):
            idx = rng.integers(0, 256, size=32)
            pair.train_step({k: v[idx] for k, v in region_a.items()})
        r_a = pair.raw_reward(region_a).mean()
        r_b = pair.raw_reward(region_b).mean()
        assert r_a < r_b

    def test_decay_is_monotone_smoothed(self):
        pair = make_pair()
        rng = np.random.default_rng(9)
        data = random_states(rng, 128)
        means = []
        for _ in range(30):
            for _ in range(5):
                idx = rng.integers(0, 128, size=32)
                pair.train_step({k: v[idx] for k, v in data.items()})
            means.append(pair.raw_reward(data).mean())
        smooth = np.convolve(means, np.ones(5) / 5, mode="valid")
        assert all(smooth[i + 1] <= smooth[i] + 1e-12 for i in range(len(smooth) - 1))


class TestNormalization:
    def test_running_std_matches_numpy(self):
        rs = RunningStd()
        rng = np.random.default_rng(10)
        vals = rng.normal(scale=3.0, size=500)
        rs.update(vals[:200])
        rs.update(vals[200:])
        assert rs.std == pytest.approx(float(vals.std()), rel=1e-9)

    def test_reports_one_before_two_samples(self):
        rs = RunningStd()
        assert rs.std == 1.0
        rs.update(np.array([5.0]))
        assert rs.std == 1.0

    def test_normalized_copy_leaves_raw_alone(self):
        pair = make_pair(cfg=CuriosityConfig(lr=1e-3))
        rng = np.random.default_rng(11)
        raw = pair.raw_reward(random_states(rng, 64))
        pair.observe_rewards(raw)
        normed = pair.normalized_reward(raw)
        assert np.allclose(normed * (pair.reward_std.std + 1e-8), raw, rtol=1e-12)
